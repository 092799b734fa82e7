//===- perfbench/harness/Inputs.cpp - Seeded workload inputs --------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// Generates every input of a run from its seed: the hierarchy and its
/// `.mlk` text, the readers' Zipf key streams, the cold-start query list
/// and the edit stream. The same seed gives byte-identical inputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "memlook/frontend/SourcePrinter.h"
#include "memlook/support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>
#include <unordered_map>

using namespace memlook;
using namespace perfbench;

namespace {

/// Readers per workload and the length of each reader's stream (cycled).
constexpr uint32_t ReadZipfReaders = 3;
constexpr uint32_t EditChurnReaders = 1;
constexpr size_t StreamLength = size_t(1) << 18;
/// Distinct miss keys a stream draws from (unknown class or member).
constexpr uint32_t MissPool = 1024;
/// Queries every cold start answers.
constexpr size_t QueryListLength = 1024;
/// Scripts in the edit stream; edit_churn stops committing at the end.
constexpr size_t EditStreamLength = 4096;

/// The dense DAG's shape is drawn once, so every seed measures the same
/// amount of work; the run's seed relabels it (relabel() below).
constexpr uint64_t DenseShapeSeed = 0xd5e5eed;

/// Independent sub-seeds for the parts of one run's input.
uint64_t subSeed(uint64_t Seed, uint64_t Part) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + Part);
  return R.next();
}

/// \p Prefix followed by \p N: a fresh name.
std::string freshName(const char *Prefix, uint64_t N) {
  std::string Name(Prefix);
  Name += std::to_string(N);
  return Name;
}

/// A seeded permutation of [0, N).
std::vector<uint32_t> shuffled(uint32_t N, Rng &R) {
  std::vector<uint32_t> P(N);
  std::iota(P.begin(), P.end(), 0u);
  for (uint32_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.nextBelow(I)]);
  return P;
}

/// \p H with its classes and member names renamed by a
/// seeded permutation: the same shape, so the same work, under other
/// names. Classes keep their creation order, so bases still come first.
Workload relabel(const Hierarchy &H, uint64_t Seed) {
  Rng R(Seed);
  std::vector<uint32_t> ClassPerm = shuffled(H.numClasses(), R);
  std::vector<uint32_t> NamePerm = shuffled(H.numInternedNames(), R);
  auto className = [&](ClassId C) {
    return freshName("K", ClassPerm[C.index()]);
  };
  auto memberName = [&](Symbol M) {
    return freshName("m", NamePerm[M.rawValue()]);
  };
  Hierarchy Out;
  for (uint32_t C = 0; C != H.numClasses(); ++C)
    Out.createClass(className(ClassId(C)));
  for (uint32_t C = 0; C != H.numClasses(); ++C) {
    const Hierarchy::ClassInfo &Info = H.info(ClassId(C));
    for (const BaseSpecifier &B : Info.DirectBases)
      Out.addBase(ClassId(C), B.Base, B.Kind, B.Access);
    for (const MemberDecl &M : Info.Members) {
      if (M.isUsingDeclaration())
        Out.addUsingDeclaration(ClassId(C), M.UsingFrom, memberName(M.Name),
                                M.Access);
      else
        Out.addMember(ClassId(C), memberName(M.Name), M.IsStatic, M.IsVirtual,
                      M.Access);
    }
  }
  DiagnosticEngine Diags;
  bool Ok = Out.finalize(Diags);
  (void)Ok;
  assert(Ok && "a relabelled valid hierarchy stays valid");
  return Workload{std::move(Out), {}, {}};
}

/// The key space: every (class, member name) pair of \p H, plus the
/// miss keys past its end.
struct KeySpace {
  std::vector<std::string> Classes;
  std::vector<std::string> Members;

  explicit KeySpace(const Hierarchy &H) {
    for (uint32_t C = 0; C != H.numClasses(); ++C)
      Classes.emplace_back(H.className(ClassId(C)));
    for (Symbol M : H.allMemberNames())
      Members.emplace_back(H.spelling(M));
  }

  uint64_t size() const { return uint64_t(Classes.size()) * Members.size(); }

  KeyText key(uint64_t Pair) const {
    return KeyText{Classes[Pair / Members.size()],
                   Members[Pair % Members.size()]};
  }

  /// Miss key \p K: an unknown class with a real member name, or a real
  /// class with an unknown member name.
  KeyText miss(uint32_t K) const {
    if (K % 2 == 0)
      return KeyText{freshName("Missing", K),
                     Members[K % Members.size()]};
    return KeyText{Classes[(uint64_t(K) * 7919) % Classes.size()],
                   freshName("missing_m", K)};
  }
};

/// A seeded affine bijection of [0, N): rank -> key-space pair.
struct Permutation {
  uint64_t N, A, B;

  Permutation(uint64_t N, Rng &R) : N(N) {
    do
      A = R.nextBelow(N - 1) + 1;
    while (std::gcd(A, N) != 1);
    B = R.nextBelow(N);
  }

  uint64_t operator()(uint64_t Rank) const {
    return uint64_t((static_cast<unsigned __int128>(A) * Rank + B) % N);
  }
};

/// A Zipf(1) rank in [0, N): the continuous 1/x law, inverted.
uint64_t zipfRank(Rng &R, uint64_t N) {
  double X = std::exp(R.nextUnit() * std::log(double(N) + 1.0));
  uint64_t Rank = static_cast<uint64_t>(X) - 1;
  return std::min<uint64_t>(Rank, N - 1);
}

ReadStream makeReadStream(const KeySpace &Space, const Permutation &Perm,
                          uint64_t Seed) {
  Rng R(Seed);
  ReadStream S;
  S.Entries.reserve(StreamLength);
  std::unordered_map<uint64_t, uint32_t> SlotOf;
  for (size_t I = 0; I != StreamLength; ++I) {
    // 10% misses; the rest Zipf over the permuted key space.
    uint64_t Id;
    if (R.nextBelow(10) == 0)
      Id = Space.size() + R.nextBelow(MissPool);
    else
      Id = Perm(zipfRank(R, Space.size()));
    auto [It, Fresh] = SlotOf.try_emplace(Id, uint32_t(S.Slots.size()));
    if (Fresh)
      S.Slots.push_back(Id < Space.size()
                            ? Space.key(Id)
                            : Space.miss(uint32_t(Id - Space.size())));
    // 70% probe(QueryKey&), 20% query(QueryKey&), 10% query(string, string).
    uint64_t Mix = R.nextBelow(10);
    ReadOp Op = Mix < 7 ? ReadOp::Probe
                        : Mix < 9 ? ReadOp::QueryKey : ReadOp::QueryString;
    S.Entries.push_back(uint32_t(Op) << 30 | It->second);
  }
  return S;
}

std::vector<KeyText> makeQueryList(const KeySpace &Space, uint64_t Seed) {
  Rng R(Seed);
  std::vector<KeyText> List;
  for (size_t I = 0; I != QueryListLength; ++I)
    List.push_back(R.nextBelow(10) == 0
                       ? Space.miss(uint32_t(R.nextBelow(MissPool)))
                       : Space.key(R.nextBelow(Space.size())));
  return List;
}

Transaction::Op op(Transaction::OpKind Kind, std::string Class,
                   std::string Target, std::string Member) {
  return Transaction::Op{Kind,
                         std::move(Class),
                         std::move(Target),
                         std::move(Member),
                         InheritanceKind::NonVirtual,
                         AccessSpec::Public,
                         false,
                         false};
}

/// The edit stream. Every edit leaves the answers of the original
/// (class, member) keys unchanged: added names are fresh, added classes
/// are leaves nothing derives from, and only added names and classes
/// are ever removed. So every read of an original key stays checkable
/// while the stream runs, and every commit must succeed.
std::vector<EditScript> makeEditStream(const KeySpace &Space, uint64_t Seed) {
  using K = Transaction::OpKind;
  struct Leaf {
    std::string Name;
    std::vector<std::string> Bases;
  };
  Rng R(Seed);
  std::vector<Leaf> Leaves;
  std::vector<std::pair<std::string, std::string>> AddedMembers;
  uint64_t Fresh = 0;
  auto original = [&] {
    return Space.Classes[R.nextBelow(Space.Classes.size())];
  };

  // The mix is exact within every block of ten scripts - 4 AddMember,
  // 2 RemoveMember, 2 AddClass, 1 AddBase, 1 RemoveClass - in a seeded
  // order, so any prefix of the stream has the same share of full
  // rebuilds. An edit with nothing to act on becomes an add.
  const uint64_t Block[10] = {0, 0, 0, 0, 4, 4, 6, 6, 8, 9};
  std::vector<uint64_t> Kinds;
  std::vector<EditScript> Stream;
  while (Stream.size() != EditStreamLength) {
    if (Kinds.empty()) {
      Kinds.assign(std::begin(Block), std::end(Block));
      for (size_t I = Kinds.size(); I > 1; --I)
        std::swap(Kinds[I - 1], Kinds[R.nextBelow(I)]);
    }
    uint64_t Draw = Kinds.back();
    Kinds.pop_back();
    if (Draw >= 4 && Draw < 6 && AddedMembers.empty())
      Draw = 0;
    if (Draw >= 8 && Leaves.empty())
      Draw = 6;
    Leaf *Extended = nullptr;
    std::string NewBase;
    if (Draw == 8) {
      Extended = &Leaves[R.nextBelow(Leaves.size())];
      NewBase = original();
      if (std::find(Extended->Bases.begin(), Extended->Bases.end(), NewBase) !=
          Extended->Bases.end())
        Draw = 0; // already a direct base
    }
    EditScript Script;
    if (Draw < 4) {
      std::string Class = original();
      std::string Name = freshName("e", Fresh++);
      Script.push_back(op(K::AddMember, Class, "", Name));
      AddedMembers.emplace_back(std::move(Class), std::move(Name));
    } else if (Draw < 6) {
      size_t Pick = R.nextBelow(AddedMembers.size());
      Script.push_back(op(K::RemoveMember, AddedMembers[Pick].first, "",
                          AddedMembers[Pick].second));
      AddedMembers.erase(AddedMembers.begin() + ptrdiff_t(Pick));
    } else if (Draw < 8) {
      Leaf L{freshName("L", Fresh++), {original()}};
      if (R.nextBelow(2) == 0) {
        std::string Second = original();
        if (Second != L.Bases[0])
          L.Bases.push_back(std::move(Second));
      }
      Script.push_back(op(K::AddClass, L.Name, "", ""));
      for (const std::string &Base : L.Bases)
        Script.push_back(op(K::AddBase, L.Name, Base, ""));
      Script.push_back(
          op(K::AddMember, L.Name, "", freshName("lm", Fresh++)));
      Leaves.push_back(std::move(L));
    } else if (Draw < 9) {
      Script.push_back(op(K::AddBase, Extended->Name, NewBase, ""));
      Extended->Bases.push_back(std::move(NewBase));
    } else {
      size_t Pick = R.nextBelow(Leaves.size());
      Script.push_back(op(K::RemoveClass, Leaves[Pick].Name, "", ""));
      Leaves.erase(Leaves.begin() + ptrdiff_t(Pick));
    }
    Stream.push_back(std::move(Script));
  }
  return Stream;
}

const char *opKindName(Transaction::OpKind Kind) {
  switch (Kind) {
  case Transaction::OpKind::AddClass:
    return "AddClass";
  case Transaction::OpKind::RemoveClass:
    return "RemoveClass";
  case Transaction::OpKind::AddBase:
    return "AddBase";
  case Transaction::OpKind::RemoveBase:
    return "RemoveBase";
  case Transaction::OpKind::AddMember:
    return "AddMember";
  case Transaction::OpKind::RemoveMember:
    return "RemoveMember";
  case Transaction::OpKind::AddUsing:
    return "AddUsing";
  }
  return "?";
}

} // namespace

bool perfbench::parseWorkloadKind(std::string_view Name, WorkloadKind &Out) {
  if (Name == "read_zipf")
    Out = WorkloadKind::ReadZipf;
  else if (Name == "edit_churn")
    Out = WorkloadKind::EditChurn;
  else if (Name == "cold_dense")
    Out = WorkloadKind::ColdDense;
  else
    return false;
  return true;
}

Inputs perfbench::makeInputs(WorkloadKind Kind, uint64_t Seed) {
  Inputs In;
  In.Kind = Kind;
  In.Seed = Seed;
  if (Kind == WorkloadKind::ColdDense) {
    // A dense random DAG: virtual edges, statics, using-declarations
    // and restricted access, with about half of its answers ambiguous.
    RandomHierarchyParams P;
    P.NumClasses = 2400;
    P.MemberPool = 220;
    P.AvgBases = 1.8;
    P.VirtualEdgeChance = 0.3;
    P.DeclareChance = 0.04;
    P.StaticChance = 0.15;
    P.RestrictedEdgeChance = 0.2;
    P.UsingChance = 0.1;
    In.Source =
        relabel(makeRandomHierarchy(P, DenseShapeSeed).H, subSeed(Seed, 1));
    In.Options.WarmThreads = 3;
  } else {
    // The 11,616-class modular forest with 578 member names.
    In.Source = makeModularForest(96, 3, 4, 6, 2);
    In.Options.WarmThreads = Kind == WorkloadKind::EditChurn ? 2 : 3;
  }
  std::ostringstream OS;
  printHierarchySource(In.Source.H, OS);
  In.Text = OS.str();

  KeySpace Space(In.Source.H);
  In.QueryList = makeQueryList(Space, subSeed(Seed, 2));
  In.Edits = makeEditStream(Space, subSeed(Seed, 3));
  if (Kind != WorkloadKind::ColdDense) {
    Rng PermRng(subSeed(Seed, 4));
    Permutation Perm(Space.size(), PermRng);
    uint32_t Readers =
        Kind == WorkloadKind::ReadZipf ? ReadZipfReaders : EditChurnReaders;
    for (uint32_t T = 0; T != Readers; ++T)
      In.Readers.push_back(makeReadStream(Space, Perm, subSeed(Seed, 10 + T)));
  }
  return In;
}

std::string perfbench::renderEdits(const std::vector<EditScript> &Edits) {
  std::string Out;
  for (const EditScript &Script : Edits) {
    for (const Transaction::Op &Op : Script) {
      Out += opKindName(Op.Kind);
      Out += ' ' + Op.Class + ' ' + Op.Target + ' ' + Op.Member + ';';
    }
    Out += '\n';
  }
  return Out;
}

Transaction perfbench::makeTxn(const LookupService &Svc,
                               const EditScript &Ops) {
  using K = Transaction::OpKind;
  Transaction Txn = Svc.beginTxn();
  for (const Transaction::Op &Op : Ops) {
    switch (Op.Kind) {
    case K::AddClass:
      Txn.addClass(Op.Class);
      break;
    case K::RemoveClass:
      Txn.removeClass(Op.Class);
      break;
    case K::AddBase:
      Txn.addBase(Op.Class, Op.Target, Op.EdgeKind, Op.Access);
      break;
    case K::RemoveBase:
      Txn.removeBase(Op.Class, Op.Target);
      break;
    case K::AddMember:
      Txn.addMember(Op.Class, Op.Member, Op.IsStatic, Op.IsVirtual, Op.Access);
      break;
    case K::RemoveMember:
      Txn.removeMember(Op.Class, Op.Member);
      break;
    case K::AddUsing:
      Txn.addUsing(Op.Class, Op.Target, Op.Member, Op.Access);
      break;
    }
  }
  return Txn;
}
