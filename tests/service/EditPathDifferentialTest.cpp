//===- EditPathDifferentialTest.cpp ---------------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// applyEditScript edits an editable copy of the epoch by class id. The
/// name-keyed reference (ReferenceEditModel.h) replays the same script
/// by spelling and rebuilds from scratch. Random scripts over random,
/// modular-forest and dense hierarchies must get the same verdict from
/// both: accept or reject, the ErrorCode and message, and on accept the
/// same fingerprint, DirectDerived lists, member names and counters.
/// Each path edits its own lineage, so Symbols that drift apart across
/// epochs (the id path appends to its predecessor's interner, the
/// reference interns afresh) would show as a disagreement.
///
//===----------------------------------------------------------------------===//

#include "ReferenceEditModel.h"

#include "memlook/service/Transaction.h"
#include "memlook/service/WriteAheadLog.h"
#include "memlook/support/Rng.h"
#include "memlook/workload/Generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using namespace memlook;
using namespace memlook::service;

namespace {

using OpKind = Transaction::OpKind;

Transaction::Op makeOp(OpKind Kind, std::string Class, std::string Target = {},
                       std::string Member = {}) {
  Transaction::Op Op{Kind, std::move(Class), std::move(Target),
                     std::move(Member)};
  return Op;
}

/// Draws a class name: an existing class most of the time, else one the
/// script added, or - when \p Noisy - a ghost or the empty name.
std::string drawClass(Rng &R, const Hierarchy &H,
                      const std::vector<std::string> &Added, bool Noisy) {
  uint64_t Roll = R.nextBelow(Noisy ? 16 : 14);
  if (Roll < 11 && H.numClasses() != 0) {
    uint32_t C = static_cast<uint32_t>(R.nextBelow(H.numClasses()));
    return std::string(H.className(ClassId(C)));
  }
  if (Roll < 14 && !Added.empty())
    return Added[R.nextBelow(Added.size())];
  if (Roll < 15)
    return "Ghost" + std::to_string(R.nextBelow(3));
  return "";
}

/// A member name: the generators' pools, a few fresh names, or - when
/// \p Noisy - sometimes the empty name.
std::string drawMember(Rng &R, bool Noisy) {
  switch (R.nextBelow(8)) {
  case 0:
    return "g" + std::to_string(R.nextBelow(2));
  case 1:
    return "fresh" + std::to_string(R.nextBelow(16));
  case 2:
    if (Noisy && R.nextChance(1, 4))
      return "";
    return "t0_m" + std::to_string(R.nextBelow(4));
  default:
    return "m" + std::to_string(R.nextBelow(8));
  }
}

/// A random script of 1-8 ops, valid and invalid alike: fresh and
/// duplicate classes, removals of leaves and of referenced classes,
/// forward, back- and self-edges, duplicate names, and in half the
/// scripts unknown and empty names.
std::vector<Transaction::Op> randomScript(Rng &R, const Hierarchy &H,
                                          uint64_t Tag) {
  std::vector<Transaction::Op> Ops;
  std::vector<std::string> Added;
  const bool Noisy = R.nextChance(1, 2);
  auto pickClass = [&] { return drawClass(R, H, Added, Noisy); };
  auto pickMember = [&] { return drawMember(R, Noisy); };
  uint64_t NumOps = R.nextInRange(1, Noisy ? 8 : 4);
  for (uint64_t I = 0; I != NumOps; ++I) {
    switch (R.nextBelow(10)) {
    case 0: {
      std::string Name = R.nextChance(1, 5)
                             ? pickClass()
                             : "N" + std::to_string(Tag) + "_" +
                                   std::to_string(R.nextBelow(6));
      Added.push_back(Name);
      Ops.push_back(makeOp(OpKind::AddClass, Name));
      break;
    }
    case 1: {
      // Usually the newest class or a script-added one, so some
      // removals go through and shift ids; otherwise anything.
      std::string Name;
      uint32_t N = H.numClasses();
      if (R.nextChance(1, 2) && N != 0) {
        uint32_t Back = static_cast<uint32_t>(R.nextBelow(std::min(3u, N)));
        Name = std::string(H.className(ClassId(N - 1 - Back)));
      } else {
        Name = pickClass();
      }
      Ops.push_back(makeOp(OpKind::RemoveClass, Name));
      break;
    }
    case 2:
    case 3: {
      std::string A = pickClass();
      std::string B = R.nextChance(1, Noisy ? 8 : 16) ? A : pickClass();
      Transaction::Op Op = makeOp(OpKind::AddBase, A, B);
      Op.EdgeKind = R.nextChance(1, 3) ? InheritanceKind::Virtual
                                       : InheritanceKind::NonVirtual;
      Op.Access = static_cast<AccessSpec>(R.nextBelow(3));
      Ops.push_back(Op);
      break;
    }
    case 4: {
      // Often an existing edge, so removals succeed.
      std::string A = pickClass(), B;
      ClassId AId = H.findClass(A);
      if (AId.isValid() && !H.info(AId).DirectBases.empty() &&
          R.nextChance(2, 3)) {
        const auto &Bases = H.info(AId).DirectBases;
        B = std::string(H.className(Bases[R.nextBelow(Bases.size())].Base));
      } else {
        B = R.nextChance(1, 6) ? A : pickClass();
      }
      Ops.push_back(makeOp(OpKind::RemoveBase, A, B));
      break;
    }
    case 5:
    case 6: {
      Transaction::Op Op =
          makeOp(OpKind::AddMember, pickClass(), {}, pickMember());
      Op.IsStatic = R.nextChance(1, 5);
      Op.IsVirtual = R.nextChance(1, 4);
      Op.Access = static_cast<AccessSpec>(R.nextBelow(3));
      Ops.push_back(Op);
      break;
    }
    case 7: {
      // Often a member the class declares, so removals succeed.
      std::string A = pickClass(), M;
      ClassId AId = H.findClass(A);
      if (AId.isValid() && !H.info(AId).Members.empty() &&
          R.nextChance(2, 3)) {
        const auto &Members = H.info(AId).Members;
        M = std::string(H.spelling(Members[R.nextBelow(Members.size())].Name));
      } else {
        M = pickMember();
      }
      Ops.push_back(makeOp(OpKind::RemoveMember, A, {}, M));
      break;
    }
    default: {
      // A using-declaration naming a direct base most of the time (valid
      // unless the member is taken), else anything (often not a base).
      std::string A = pickClass(), From;
      ClassId AId = H.findClass(A);
      if (AId.isValid() && !H.info(AId).DirectBases.empty() &&
          R.nextChance(2, 3)) {
        const auto &Bases = H.info(AId).DirectBases;
        From = std::string(H.className(Bases[R.nextBelow(Bases.size())].Base));
      } else {
        From = pickClass();
      }
      Transaction::Op Op = makeOp(OpKind::AddUsing, A, From, pickMember());
      Op.IsStatic = R.nextChance(1, 5); // dropped by both paths
      Op.Access = static_cast<AccessSpec>(R.nextBelow(3));
      Ops.push_back(Op);
      break;
    }
    }
  }
  return Ops;
}

/// Unlimited most of the time; sometimes a budget one step above the
/// base's size in one dimension, so growth trips it mid-script.
ResourceBudget randomBudget(Rng &R, const Hierarchy &H) {
  ResourceBudget B = ResourceBudget::unlimited();
  switch (R.nextBelow(16)) {
  case 0:
    B.MaxClasses = H.numClasses() + 1;
    break;
  case 1:
    B.MaxEdges = H.numEdges() + 1;
    break;
  case 2:
    B.MaxMemberDecls = H.numMemberDecls() + 1;
    break;
  default:
    break;
  }
  return B;
}

std::vector<std::string> memberNameSpellings(const Hierarchy &H) {
  std::vector<std::string> Out;
  for (Symbol S : H.allMemberNames())
    Out.emplace_back(H.spelling(S));
  return Out;
}

/// Expects the two results to agree; returns a description of the first
/// disagreement, or an empty string.
std::string compareResults(const Expected<Hierarchy> &Got,
                           const Expected<Hierarchy> &Want) {
  auto Verdict = [](const Expected<Hierarchy> &E) {
    return E.hasValue() ? std::string("accepted")
                        : "rejected: " + E.status().message();
  };
  if (Got.hasValue() != Want.hasValue())
    return "verdicts differ: id path " + Verdict(Got) + ", reference " +
           Verdict(Want);
  if (!Got.hasValue()) {
    if (Got.status().code() != Want.status().code() ||
        Got.status().message() != Want.status().message())
      return "errors differ: '" + Got.status().message() + "' vs '" +
             Want.status().message() + "'";
    return {};
  }
  const Hierarchy &G = *Got, &W = *Want;
  if (hierarchyFingerprint(G) != hierarchyFingerprint(W))
    return "fingerprints differ";
  if (G.numEdges() != W.numEdges() || G.numMemberDecls() != W.numMemberDecls())
    return "edge or member counters differ";
  for (uint32_t C = 0; C != G.numClasses(); ++C)
    if (G.info(ClassId(C)).DirectDerived != W.info(ClassId(C)).DirectDerived)
      return "DirectDerived of '" + std::string(G.className(ClassId(C))) +
             "' differs";
  if (memberNameSpellings(G) != memberNameSpellings(W))
    return "allMemberNames() differs";
  return {};
}

struct CampaignTally {
  uint64_t Accepted = 0;
  /// Accepted scripts that removed a class, shifting ids.
  uint64_t AcceptedRemovals = 0;
  uint64_t Rejected = 0;
  std::map<ErrorCode, uint64_t> ByCode;
};

/// Runs \p Scripts random scripts from \p Base, each path on its own
/// lineage: an accepted script moves both lineages on, and the next
/// script is drawn against the (equal) new epoch.
void runCampaign(Hierarchy Base, uint64_t Seed, uint64_t Scripts,
                 CampaignTally &Tally) {
  Rng R(Seed);
  Hierarchy IdLine = Base.editableCopy();
  {
    DiagnosticEngine Diags;
    ASSERT_TRUE(IdLine.finalize(Diags));
  }
  Hierarchy RefLine = std::move(Base);
  for (uint64_t S = 0; S != Scripts; ++S) {
    std::vector<Transaction::Op> Ops = randomScript(R, IdLine, S);
    ResourceBudget Budget = randomBudget(R, IdLine);
    Expected<Hierarchy> Got = applyEditScript(IdLine, Ops, Budget);
    Expected<Hierarchy> Want = referenceApplyEditScript(RefLine, Ops, Budget);
    std::string Diff = compareResults(Got, Want);
    ASSERT_TRUE(Diff.empty()) << "seed " << Seed << " script " << S << ": "
                              << Diff;
    if (Got.hasValue()) {
      ++Tally.Accepted;
      Tally.AcceptedRemovals +=
          std::any_of(Ops.begin(), Ops.end(), [](const Transaction::Op &Op) {
            return Op.Kind == OpKind::RemoveClass;
          });
      IdLine = Got.takeValue();
      RefLine = Want.takeValue();
    } else {
      ++Tally.Rejected;
      ++Tally.ByCode[Got.status().code()];
    }
  }
}

TEST(EditPathDifferentialTest, RandomScriptsAgreeWithTheNameKeyedReference) {
  CampaignTally Tally;
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    RandomHierarchyParams Params;
    Params.NumClasses = static_cast<uint32_t>(4 + Seed % 17);
    Params.MemberPool = 8;
    Params.UsingChance = 0.15;
    runCampaign(makeRandomHierarchy(Params, Seed).H, Seed, 40, Tally);
    if (HasFatalFailure())
      return;
  }
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    runCampaign(makeModularForest(3, 3, 2, 4, 2).H, 1000 + Seed, 60, Tally);
    if (HasFatalFailure())
      return;
  }
  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    RandomHierarchyParams Dense;
    Dense.NumClasses = 40;
    Dense.AvgBases = 5.0;
    Dense.VirtualEdgeChance = 0.5;
    Dense.DeclareChance = 0.4;
    Dense.UsingChance = 0.2;
    runCampaign(makeRandomHierarchy(Dense, Seed).H, 2000 + Seed, 60, Tally);
    if (HasFatalFailure())
      return;
  }

  // The mix must really cover both verdicts and every error the op and
  // whole-graph checks can return.
  EXPECT_GT(Tally.Accepted, 200u);
  EXPECT_GT(Tally.AcceptedRemovals, 20u);
  EXPECT_GT(Tally.Rejected, 200u);
  for (ErrorCode Code :
       {ErrorCode::UnknownClass, ErrorCode::DuplicateClass,
        ErrorCode::DuplicateBase, ErrorCode::InheritanceCycle,
        ErrorCode::InvalidUsingTarget, ErrorCode::BudgetExceeded,
        ErrorCode::InvalidArgument})
    EXPECT_GT(Tally.ByCode[Code], 0u) << errorCodeLabel(Code);
}

/// The base every pinned case edits: A <- B, with m declared at A.
Hierarchy pinnedBase() {
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  H.addBase(B, A);
  H.addMember(A, "m");
  DiagnosticEngine Diags;
  EXPECT_TRUE(H.finalize(Diags));
  return H;
}

TEST(EditPathDifferentialTest, SelfEdgeAddedThenRemovedCommits) {
  // Whole-graph errors are judged on the script's final graph, so a
  // self-edge a later op removes never existed.
  Hierarchy Base = pinnedBase();
  std::vector<Transaction::Op> Ops{makeOp(OpKind::AddBase, "A", "A"),
                                   makeOp(OpKind::RemoveBase, "A", "A")};
  Expected<Hierarchy> Got =
      applyEditScript(Base, Ops, ResourceBudget::unlimited());
  Expected<Hierarchy> Want =
      referenceApplyEditScript(Base, Ops, ResourceBudget::unlimited());
  ASSERT_TRUE(Got.hasValue()) << Got.status().message();
  EXPECT_EQ(compareResults(Got, Want), "");
  EXPECT_EQ(hierarchyFingerprint(*Got), hierarchyFingerprint(Base));
  EXPECT_EQ(Got->numEdges(), 1u);
}

TEST(EditPathDifferentialTest, OpErrorsPrecedeASurvivingSelfEdge) {
  // The self-edge would be reported only after the last op; the unknown
  // class fails an op first.
  Hierarchy Base = pinnedBase();
  std::vector<Transaction::Op> Ops{makeOp(OpKind::AddBase, "A", "A"),
                                   makeOp(OpKind::RemoveClass, "Ghost")};
  Expected<Hierarchy> Got =
      applyEditScript(Base, Ops, ResourceBudget::unlimited());
  Expected<Hierarchy> Want =
      referenceApplyEditScript(Base, Ops, ResourceBudget::unlimited());
  ASSERT_FALSE(Got.hasValue());
  EXPECT_EQ(Got.status().code(), ErrorCode::UnknownClass);
  EXPECT_EQ(compareResults(Got, Want), "");

  // Alone, the surviving self-edge is the error.
  Ops.pop_back();
  Expected<Hierarchy> Self =
      applyEditScript(Base, Ops, ResourceBudget::unlimited());
  ASSERT_FALSE(Self.hasValue());
  EXPECT_EQ(Self.status().code(), ErrorCode::InheritanceCycle);
  EXPECT_EQ(compareResults(
                Self, referenceApplyEditScript(Base, Ops,
                                               ResourceBudget::unlimited())),
            "");
}

TEST(EditPathDifferentialTest, RemoveClassNamesTheLowestReferencingClass) {
  // C names A in a using-declaration and D lists A as a base; C has the
  // lower id, so its using-declaration is the reported reference.
  Hierarchy H;
  ClassId A = H.createClass("A");
  ClassId B = H.createClass("B");
  ClassId C = H.createClass("C");
  ClassId D = H.createClass("D");
  H.addBase(B, A);
  H.addBase(C, B);
  H.addBase(D, A);
  H.addMember(A, "m");
  H.addUsingDeclaration(C, A, "m");
  DiagnosticEngine Diags;
  ASSERT_TRUE(H.finalize(Diags));

  std::vector<Transaction::Op> Ops{makeOp(OpKind::RemoveBase, "B", "A"),
                                   makeOp(OpKind::RemoveClass, "A")};
  Expected<Hierarchy> Got =
      applyEditScript(H, Ops, ResourceBudget::unlimited());
  ASSERT_FALSE(Got.hasValue());
  EXPECT_NE(Got.status().message().find("using-declaration in 'C'"),
            std::string::npos)
      << Got.status().message();
  EXPECT_EQ(compareResults(Got, referenceApplyEditScript(
                                    H, Ops, ResourceBudget::unlimited())),
            "");
}

} // namespace
