//===- perfbench/harness/Oracle.cpp - Independent expected answers --------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Expected answers come from the generator's own hierarchy, never from
/// the parsed text the service serves, and from the Section 4
/// explicit-path propagation engine, never from Figure 8. Edited states
/// are rebuilt by a separate edit model, not by the service's replay.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "memlook/core/NaivePropagationEngine.h"

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

using namespace memlook;
using namespace perfbench;

namespace {

/// Threads the oracle spreads its columns over (set-up only).
constexpr size_t OracleThreads = 3;

} // namespace

std::vector<Expect> perfbench::oracleAnswers(const Hierarchy &Source,
                                             const Hierarchy &Served,
                                             const std::vector<KeyText> &Keys) {
  std::vector<Expect> Out(Keys.size());
  // Group by member name so each propagation column is computed once,
  // then dropped with its engine.
  std::unordered_map<uint32_t, std::vector<size_t>> ByMember;
  std::vector<ClassId> Contexts(Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    Contexts[I] = Source.findClass(Keys[I].Class);
    if (!Contexts[I].isValid()) {
      Out[I].UnknownClass = true;
      continue;
    }
    Symbol Member = Source.findName(Keys[I].Member);
    if (Member.isValid())
      ByMember[Member.rawValue()].push_back(I);
  }
  std::vector<std::pair<uint32_t, std::vector<size_t>>> Groups(ByMember.begin(),
                                                              ByMember.end());
  // Columns are independent, and both hierarchies are only read: split
  // the member groups over a few threads.
  auto answerGroups = [&](size_t First, size_t Step) {
    for (size_t G = First; G < Groups.size(); G += Step) {
      NaivePropagationEngine Engine(Source,
                                    NaivePropagationEngine::Killing::Enabled,
                                    ResourceBudget::unlimited());
      Symbol Member = Symbol(Groups[G].first);
      for (size_t I : Groups[G].second) {
        LookupResult R = Engine.lookup(Contexts[I], Member);
        if (isBudgetDegraded(R.Status)) {
          std::fprintf(stderr, "perfbench: oracle could not answer %s::%s\n",
                       Keys[I].Class.c_str(), Keys[I].Member.c_str());
          std::exit(2);
        }
        Out[I].Status = R.Status;
        if (R.Status == LookupStatus::Unambiguous) {
          Out[I].DefClass =
              Served.findClass(Source.className(R.DefiningClass)).rawValue();
          Out[I].SharedStatic = R.SharedStatic;
        }
      }
    }
  };
  std::vector<std::thread> Workers;
  for (size_t W = 1; W != OracleThreads; ++W)
    Workers.emplace_back(answerGroups, W, OracleThreads);
  answerGroups(0, OracleThreads);
  for (std::thread &Worker : Workers)
    Worker.join();
  return Out;
}

Hierarchy perfbench::replayEdits(const Hierarchy &Source,
                                 const std::vector<EditScript> &Edits,
                                 size_t Count) {
  struct Member {
    std::string Name;
    MemberDecl Decl;
    std::string UsingFrom;
  };
  struct Base {
    std::string Name;
    InheritanceKind Kind;
    AccessSpec Access;
  };
  struct Class {
    std::string Name;
    std::vector<Base> Bases;
    std::vector<Member> Members;
    bool Removed = false;
  };
  std::vector<Class> Model;
  std::unordered_map<std::string, size_t> Index;
  for (ClassId Id : Source.topologicalOrder()) {
    const Hierarchy::ClassInfo &Info = Source.info(Id);
    Class C{std::string(Source.className(Id)), {}, {}};
    for (const BaseSpecifier &B : Info.DirectBases)
      C.Bases.push_back(
          Base{std::string(Source.className(B.Base)), B.Kind, B.Access});
    for (const MemberDecl &M : Info.Members)
      C.Members.push_back(Member{
          std::string(Source.spelling(M.Name)), M,
          M.isUsingDeclaration() ? std::string(Source.className(M.UsingFrom))
                                 : std::string()});
    Index.emplace(C.Name, Model.size());
    Model.push_back(std::move(C));
  }

  using K = Transaction::OpKind;
  for (size_t S = 0; S != Count && S != Edits.size(); ++S) {
    for (const Transaction::Op &Op : Edits[S]) {
      if (Op.Kind == K::AddClass) {
        Index[Op.Class] = Model.size();
        Model.push_back(Class{Op.Class, {}, {}});
        continue;
      }
      Class &C = Model[Index.at(Op.Class)];
      switch (Op.Kind) {
      case K::RemoveClass:
        C.Removed = true;
        break;
      case K::AddBase:
        C.Bases.push_back(Base{Op.Target, Op.EdgeKind, Op.Access});
        break;
      case K::AddMember: {
        MemberDecl D;
        D.IsStatic = Op.IsStatic;
        D.IsVirtual = Op.IsVirtual;
        D.Access = Op.Access;
        C.Members.push_back(Member{Op.Member, D, ""});
        break;
      }
      case K::RemoveMember:
        std::erase_if(C.Members,
                      [&](const Member &M) { return M.Name == Op.Member; });
        break;
      default:
        std::fprintf(stderr, "perfbench: the edit model has no %d ops\n",
                     int(Op.Kind));
        std::exit(2);
      }
    }
  }

  Hierarchy H;
  for (const Class &C : Model)
    if (!C.Removed)
      H.createClass(C.Name);
  for (const Class &C : Model) {
    if (C.Removed)
      continue;
    ClassId Id = H.findClass(C.Name);
    for (const Base &B : C.Bases)
      H.addBase(Id, H.findClass(B.Name), B.Kind, B.Access);
    for (const Member &M : C.Members) {
      if (M.UsingFrom.empty())
        H.addMember(Id, M.Name, M.Decl.IsStatic, M.Decl.IsVirtual,
                    M.Decl.Access);
      else
        H.addUsingDeclaration(Id, H.findClass(M.UsingFrom), M.Name,
                              M.Decl.Access);
    }
  }
  DiagnosticEngine Diags;
  if (!H.finalize(Diags)) {
    std::fprintf(stderr, "perfbench: the replayed edit model is invalid\n");
    std::exit(2);
  }
  return H;
}

namespace {

/// Compares the classification shared by probes and queries.
std::string checkClassification(LookupStatus Status, ClassId DefiningClass,
                                bool SharedStatic, const Expect &E) {
  if (Status != E.Status)
    return std::string("status ") + lookupStatusLabel(Status) + ", expected " +
           lookupStatusLabel(E.Status);
  if (E.Status == LookupStatus::Unambiguous &&
      (DefiningClass.rawValue() != E.DefClass ||
       SharedStatic != E.SharedStatic))
    return "defining class " + std::to_string(DefiningClass.rawValue()) +
           ", expected " + std::to_string(E.DefClass);
  return "";
}

} // namespace

std::string perfbench::checkProbe(const service::ProbeAnswer &A,
                                  const Expect &E) {
  if (A.Approximate || A.DeadlineExpired)
    return "approximate or late answer";
  if (A.UnknownContext != E.UnknownClass)
    return E.UnknownClass ? "expected an unknown class" : "unknown class";
  return checkClassification(A.Status, A.DefiningClass, A.SharedStatic, E);
}

std::string perfbench::checkQuery(const service::QueryAnswer &A,
                                  const Expect &E) {
  if (A.Approximate || A.DeadlineExpired)
    return "approximate or late answer";
  if (E.UnknownClass)
    return A.S.code() == ErrorCode::UnknownClass ? ""
                                                 : "expected an unknown class";
  if (!A.S.isOk())
    return "status " + A.S.toString();
  return checkClassification(A.Result.Status, A.Result.DefiningClass,
                             A.Result.SharedStatic, E);
}
