//===- SnapshotFile.cpp - Durable snapshots ----------------------------------===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//

#include "memlook/service/SnapshotFile.h"

#include "memlook/support/AtomicFile.h"
#include "memlook/support/Crc32.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>

using namespace memlook;
using namespace memlook::service;

static_assert(std::endian::native == std::endian::little,
              "the version-1 snapshot format is little-endian on disk and "
              "this implementation memcpys scalars");

namespace {

constexpr char Magic[8] = {'M', 'L', 'K', 'S', 'N', 'A', 'P', '\0'};
constexpr size_t FixedHeaderBytes = 36; // magic..sectionCount
constexpr size_t SectionEntryBytes = 24;

constexpr uint32_t SectionStrings = 1;
constexpr uint32_t SectionHierarchy = 2;
constexpr uint32_t SectionColumns = 3;

constexpr uint32_t FlagHasTable = 1;

using Column = LookupTable::Column;

Status malformed(std::string Message) {
  return Status::error(ErrorCode::SnapshotMalformed, std::move(Message));
}

//===----------------------------------------------------------------------===//
// Byte building and bounds-checked reading
//===----------------------------------------------------------------------===//

void putU32(std::string &B, uint32_t V) {
  B.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

void putU64(std::string &B, uint64_t V) {
  B.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

void patchU32(std::string &B, size_t At, uint32_t V) {
  std::memcpy(B.data() + At, &V, sizeof(V));
}

/// Sequential reader that never steps past its range: every accessor
/// reports failure instead, and the caller converts that into a
/// SnapshotMalformed status naming what was being read.
class ByteReader {
public:
  explicit ByteReader(std::string_view Bytes)
      : P(reinterpret_cast<const unsigned char *>(Bytes.data())),
        Len(Bytes.size()) {}

  size_t remaining() const { return Len - Pos; }

  bool readU32(uint32_t &Out) { return readScalar(Out); }
  bool readU64(uint64_t &Out) { return readScalar(Out); }
  bool readU8(uint8_t &Out) { return readScalar(Out); }

  bool readBytes(void *Out, size_t N) {
    if (remaining() < N)
      return false;
    std::memcpy(Out, P + Pos, N);
    Pos += N;
    return true;
  }

  bool readView(std::string_view &Out, size_t N) {
    if (remaining() < N)
      return false;
    Out = std::string_view(reinterpret_cast<const char *>(P + Pos), N);
    Pos += N;
    return true;
  }

private:
  template <typename T> bool readScalar(T &Out) {
    if (remaining() < sizeof(T))
      return false;
    std::memcpy(&Out, P + Pos, sizeof(T));
    Pos += sizeof(T);
    return true;
  }

  const unsigned char *P;
  size_t Len;
  size_t Pos = 0;
};

/// Section payloads are zero-padded to a multiple of eight bytes (the
/// header region is 8-aligned by construction, so this makes every
/// section base 8-aligned too - what lets the loader borrow typed spans
/// straight out of the file buffer). The pad sits under the section CRC;
/// a parser calls this after consuming its real content, so fewer than
/// eight zero bytes may remain and anything else is trailing garbage.
Status consumeSectionPad(ByteReader &R, const char *Section) {
  if (R.remaining() >= 8)
    return malformed(std::string("trailing bytes after the ") + Section);
  while (R.remaining() != 0) {
    uint8_t B = 0;
    R.readU8(B);
    if (B != 0)
      return malformed(std::string("nonzero padding after the ") + Section);
  }
  return Status::ok();
}

/// The serializer-side counterpart of consumeSectionPad.
void padSectionTo8(std::string &Payload) {
  Payload.append((8 - Payload.size() % 8) % 8, '\0');
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

/// First-use-ordered string table builder (the durable form of the name
/// interner: every class and member spelling stored once).
class StringTableBuilder {
public:
  uint32_t ref(std::string_view S) {
    auto It = Index.find(S);
    if (It != Index.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Strings.size());
    Strings.push_back(S);
    Index.emplace(S, Id);
    return Id;
  }

  std::string payload() const {
    std::string Out;
    putU32(Out, static_cast<uint32_t>(Strings.size()));
    for (std::string_view S : Strings) {
      putU32(Out, static_cast<uint32_t>(S.size()));
      Out.append(S);
    }
    return Out;
  }

private:
  std::vector<std::string_view> Strings; // views into the live Hierarchy
  std::unordered_map<std::string_view, uint32_t> Index;
};

std::string serializeHierarchy(const Hierarchy &H, StringTableBuilder &Strings) {
  std::string Out;
  uint32_t N = H.numClasses();
  putU32(Out, N);
  for (uint32_t C = 0; C != N; ++C) {
    const Hierarchy::ClassInfo &Info = H.info(ClassId(C));
    putU32(Out, Strings.ref(H.spelling(Info.Name)));
    putU32(Out, static_cast<uint32_t>(Info.DirectBases.size()));
    for (const BaseSpecifier &Spec : Info.DirectBases) {
      putU32(Out, Spec.Base.index());
      Out.push_back(static_cast<char>(Spec.Kind));
      Out.push_back(static_cast<char>(Spec.Access));
    }
    putU32(Out, static_cast<uint32_t>(Info.Members.size()));
    for (const MemberDecl &M : Info.Members) {
      putU32(Out, Strings.ref(H.spelling(M.Name)));
      uint8_t Flags = (M.IsStatic ? 1 : 0) | (M.IsVirtual ? 2 : 0);
      Out.push_back(static_cast<char>(Flags));
      Out.push_back(static_cast<char>(M.Access));
      putU32(Out, M.UsingFrom.rawValue());
    }
  }
  return Out;
}

/// The hash a snapshot stores with each column: FNV-1a folded eight
/// bytes at a time over the dense entry bytes, then the red pool bytes,
/// then the blue pool bytes, each run folding its sub-word tail bytewise.
/// The loader does not read it back (it keys dedup by the in-memory
/// CompactColumn::structuralHash()); it is written so that the format,
/// and every file it produces, stays byte-identical.
uint64_t denseColumnHash(std::initializer_list<std::string_view> Runs) {
  uint64_t Hsh = 0xcbf29ce484222325ULL;
  for (std::string_view Run : Runs) {
    size_t I = 0;
    for (; I + 8 <= Run.size(); I += 8) {
      uint64_t Word;
      std::memcpy(&Word, Run.data() + I, 8);
      Hsh = (Hsh ^ Word) * 0x100000001b3ULL;
    }
    for (; I != Run.size(); ++I)
      Hsh = (Hsh ^ static_cast<unsigned char>(Run[I])) * 0x100000001b3ULL;
  }
  return Hsh;
}

std::string serializeColumns(const Hierarchy &H, const LookupTable &Table,
                             uint32_t HierarchyCrc) {
  std::string Out;

  // The columns are only meaningful for the exact hierarchy they were
  // tabulated over, so the section opens by naming it: the CRC of the
  // hierarchy payload it was built against. The loader refuses a table
  // whose binding disagrees with the hierarchy it just replayed - a
  // corruption (even a re-checksummed one) that edits the hierarchy
  // cannot smuggle a stale-but-well-formed table past validation.
  putU32(Out, HierarchyCrc);

  // Distinct columns in first-reference order; aliased member indices
  // share one stored column, preserving dedup/rewarm sharing on disk.
  std::vector<const Column *> Distinct;
  std::unordered_map<const Column *, uint32_t> DistinctIdx;
  std::vector<uint32_t> MemberRefs;
  MemberRefs.reserve(Table.columns().size());
  for (const std::shared_ptr<const Column> &Col : Table.columns()) {
    assert(Col && Col->Complete && Col->Overrides.empty() &&
           "only fully built, unmodified tables are persisted");
    auto [It, Inserted] =
        DistinctIdx.emplace(Col.get(), static_cast<uint32_t>(Distinct.size()));
    if (Inserted)
      Distinct.push_back(Col.get());
    MemberRefs.push_back(It->second);
  }

  putU32(Out, static_cast<uint32_t>(Distinct.size()));
  for (const Column *Col : Distinct) {
    const CompactColumn &Data = Col->Data;
    assert(Data.size() <= H.numClasses() &&
           "column rows beyond the epoch's class count");
    (void)H;
    std::span<const ClassId> Red = Data.rawRedPool();
    std::span<const BlueElement> Blue = Data.rawBluePool();
    putU32(Out, Data.size());
    putU32(Out, static_cast<uint32_t>(Red.size()));
    putU32(Out, static_cast<uint32_t>(Blue.size()));
    // The column is stored dense: its pages expanded in row order, zero
    // pages included. The hash field covers exactly those bytes, so it
    // is filled in once they are written.
    size_t HashAt = Out.size();
    putU64(Out, 0);
    size_t PayloadAt = Out.size();
    for (uint32_t P = 0; P != Data.numPages(); ++P) {
      std::span<const CompactEntry> Rows = Data.page(P);
      Out.append(reinterpret_cast<const char *>(Rows.data()),
                 Rows.size_bytes());
    }
    size_t EntriesEnd = Out.size();
    Out.append(reinterpret_cast<const char *>(Red.data()), Red.size_bytes());
    size_t RedEnd = Out.size();
    Out.append(reinterpret_cast<const char *>(Blue.data()),
               Blue.size_bytes());
    uint64_t Hash = denseColumnHash(
        {{Out.data() + PayloadAt, EntriesEnd - PayloadAt},
         {Out.data() + EntriesEnd, RedEnd - EntriesEnd},
         {Out.data() + RedEnd, Out.size() - RedEnd}});
    std::string Field;
    putU64(Field, Hash);
    Out.replace(HashAt, Field.size(), Field);
  }

  putU32(Out, static_cast<uint32_t>(MemberRefs.size()));
  for (uint32_t Ref : MemberRefs)
    putU32(Out, Ref);
  return Out;
}

//===----------------------------------------------------------------------===//
// Hierarchy replay
//===----------------------------------------------------------------------===//

/// Rebuilds the hierarchy by replaying the section through the public
/// construction API and finalize(), so loaded files pass exactly the
/// validation untrusted .mlk sources pass. On success the replayed
/// hierarchy's member-name order matches the save side (finalize()
/// derives it deterministically from class/declaration order).
Status replayHierarchy(ByteReader &R, uint32_t ExpectClasses,
                       uint32_t ExpectMembers,
                       const std::vector<std::string_view> &Strings,
                       const ResourceBudget &Budget, Hierarchy &Out) {
  uint32_t NumClasses = 0;
  if (!R.readU32(NumClasses))
    return malformed("hierarchy section truncated before class count");
  if (NumClasses != ExpectClasses)
    return malformed("hierarchy class count disagrees with the header");

  DiagnosticEngine Diags;
  Diags.setErrorLimit(static_cast<unsigned>(Budget.MaxErrorDiagnostics));

  struct PendingBase {
    uint32_t Derived, Base;
    uint8_t Kind, Access;
  };
  struct PendingMember {
    uint32_t Class, Name, UsingFrom;
    uint8_t Flags, Access;
  };
  std::vector<PendingBase> Bases;
  std::vector<PendingMember> Members;

  // Pass 1: create every class (ids match file order), queueing edges
  // and members so forward base references resolve.
  uint64_t TotalEdges = 0, TotalMembers = 0;
  for (uint32_t C = 0; C != NumClasses; ++C) {
    uint32_t NameRef = 0, NumBases = 0, NumMembers = 0;
    if (!R.readU32(NameRef) || !R.readU32(NumBases))
      return malformed("hierarchy section truncated in class record");
    if (NameRef >= Strings.size())
      return malformed("class name reference out of string-table range");
    ClassId Id = Out.createClass(Strings[NameRef], SourceLoc(), &Diags);
    if (!Id.isValid() || Id.index() != C)
      return malformed("duplicate class name in hierarchy section");

    TotalEdges += NumBases;
    if (TotalEdges > Budget.MaxEdges)
      return Status::error(ErrorCode::BudgetExceeded,
                           "snapshot hierarchy exceeds the edge budget");
    // Each base record is 6 bytes; reject impossible counts before
    // looping so a lying count cannot spin.
    if (NumBases > R.remaining() / 6)
      return malformed("hierarchy base count exceeds the section");
    for (uint32_t I = 0; I != NumBases; ++I) {
      PendingBase B{};
      B.Derived = C;
      if (!R.readU32(B.Base) || !R.readU8(B.Kind) || !R.readU8(B.Access))
        return malformed("hierarchy section truncated in base specifier");
      if (B.Base >= NumClasses)
        return malformed("base class index out of range");
      if (B.Kind > 1 || B.Access > 2)
        return malformed("base specifier with impossible kind or access");
      Bases.push_back(B);
    }

    if (!R.readU32(NumMembers))
      return malformed("hierarchy section truncated before member count");
    TotalMembers += NumMembers;
    if (TotalMembers > Budget.MaxMemberDecls)
      return Status::error(ErrorCode::BudgetExceeded,
                           "snapshot hierarchy exceeds the member budget");
    if (NumMembers > R.remaining() / 10) // 10 bytes per member record
      return malformed("hierarchy member count exceeds the section");
    for (uint32_t I = 0; I != NumMembers; ++I) {
      PendingMember M{};
      M.Class = C;
      if (!R.readU32(M.Name) || !R.readU8(M.Flags) || !R.readU8(M.Access) ||
          !R.readU32(M.UsingFrom))
        return malformed("hierarchy section truncated in member record");
      if (M.Name >= Strings.size())
        return malformed("member name reference out of string-table range");
      if (M.Flags > 3 || M.Access > 2)
        return malformed("member with impossible flags or access");
      if (M.UsingFrom != ClassId::InvalidValue) {
        if (M.UsingFrom >= NumClasses)
          return malformed("using-declaration target index out of range");
        if (M.Flags != 0)
          return malformed("using-declaration carrying member flags");
      }
      Members.push_back(M);
    }
  }
  if (Status S = consumeSectionPad(R, "hierarchy section"); !S.isOk())
    return S;

  // Pass 2: replay edges and members through the validating API.
  for (const PendingBase &B : Bases)
    if (!Out.addBase(ClassId(B.Derived), ClassId(B.Base),
                     static_cast<InheritanceKind>(B.Kind),
                     static_cast<AccessSpec>(B.Access), SourceLoc(), &Diags))
      return malformed("rejected base specifier: " +
                       (Diags.diagnostics().empty()
                            ? std::string("invalid edge")
                            : Diags.diagnostics().back().Message));
  for (const PendingMember &M : Members) {
    // The serializer never writes a name twice in one class (the
    // builder folds redeclarations), so a duplicate here is corruption;
    // replaying it would silently shrink the member count.
    if (Out.declaresMember(ClassId(M.Class), Out.findName(Strings[M.Name])))
      return malformed("duplicate member declaration in one class");
    if (M.UsingFrom != ClassId::InvalidValue)
      Out.addUsingDeclaration(ClassId(M.Class), ClassId(M.UsingFrom),
                              Strings[M.Name],
                              static_cast<AccessSpec>(M.Access), SourceLoc(),
                              &Diags);
    else
      Out.addMember(ClassId(M.Class), Strings[M.Name], (M.Flags & 1) != 0,
                    (M.Flags & 2) != 0, static_cast<AccessSpec>(M.Access),
                    SourceLoc(), &Diags);
  }

  if (!Out.finalize(Diags) || Diags.hasErrors()) {
    std::string Why = "hierarchy failed replay validation";
    for (const Diagnostic &D : Diags.diagnostics())
      if (D.Level == Severity::Error) {
        Why += ": " + D.Message;
        break;
      }
    return malformed(std::move(Why));
  }
  if (Out.allMemberNames().size() != ExpectMembers)
    return malformed("member-name count disagrees with the header");
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Column validation
//===----------------------------------------------------------------------===//

/// Definition 15's o composition, mirrored from the kernel (where it is
/// an implementation detail): crossing the direct edge Base -> Derived
/// keeps an existing leastVirtual, otherwise a virtual edge contributes
/// its base.
ClassId composeLeastVirtual(ClassId V, ClassId Base, InheritanceKind Kind) {
  if (V.isValid())
    return V;
  if (Kind == InheritanceKind::Virtual)
    return Base;
  return ClassId();
}

bool validClassRef(uint32_t Raw, uint32_t NumClasses) {
  return Raw == ClassId::InvalidValue || Raw < NumClasses;
}

/// The per-class direct-base and direct-derived lists flattened into
/// CSR arrays, built once per columns section. The validator walks an
/// edge list for nearly every entry of every column; chasing each
/// class's ClassInfo (a fat struct whose base list is a separate heap
/// vector) per row was a measurable slice of warm starts, while these
/// contiguous 8- and 4-byte records stay cache-resident across all
/// columns.
struct FlatEdges {
  struct Base {
    uint32_t Index;
    uint8_t Kind;   // InheritanceKind
    uint8_t Access; // AccessSpec
    uint16_t Unused = 0;
  };
  std::vector<Base> Bases;       ///< concatenated per-class base lists
  std::vector<uint32_t> BaseOff; ///< NumClasses + 1 offsets into Bases
  std::vector<uint32_t> Derived; ///< concatenated per-class derived lists
  std::vector<uint32_t> DerivedOff;

  explicit FlatEdges(const Hierarchy &H) {
    uint32_t N = H.numClasses();
    BaseOff.reserve(N + 1);
    DerivedOff.reserve(N + 1);
    for (uint32_t C = 0; C != N; ++C) {
      const Hierarchy::ClassInfo &Info = H.info(ClassId(C));
      BaseOff.push_back(static_cast<uint32_t>(Bases.size()));
      for (const BaseSpecifier &Spec : Info.DirectBases)
        Bases.push_back({Spec.Base.index(), static_cast<uint8_t>(Spec.Kind),
                         static_cast<uint8_t>(Spec.Access)});
      DerivedOff.push_back(static_cast<uint32_t>(Derived.size()));
      for (ClassId D : Info.DirectDerived)
        Derived.push_back(D.index());
    }
    BaseOff.push_back(static_cast<uint32_t>(Bases.size()));
    DerivedOff.push_back(static_cast<uint32_t>(Derived.size()));
  }
};

/// Rejects any column no run of the deterministic kernel could have
/// produced over \p H (restricted to the column's leading \p NumRows
/// classes). Beyond bounds safety, the Via-chain rules re-establish the
/// invariants entryToResult asserts, so reconstructing a witness from a
/// loaded column can neither loop nor assert-fail. As a side product of
/// the sweep, \p LocalRows collects the rows holding local declarations
/// (red with no Via) in ascending order - the member-reference pass
/// needs them, and a second full pass over the entries was a measurable
/// slice of warm starts. \p MergeRows collects the rows whose entry
/// records a static merge that happened *at* that row (flag newly set
/// or member set grown beyond the via base's); the member-reference
/// pass checks those against the member's staticness, which a column
/// alone cannot know. \p NonAbsentScratch is reused row storage for the
/// derived sweep below.
Status validateColumn(const FlatEdges &Edges,
                      std::span<const CompactEntry> Entries,
                      std::span<const ClassId> RedPool,
                      std::span<const BlueElement> BluePool,
                      std::vector<uint32_t> &LocalRows,
                      std::vector<uint32_t> &MergeRows,
                      std::vector<uint32_t> &NonAbsentScratch) {
  static const CompactEntry AbsentEntry{};
  uint32_t NumRows = static_cast<uint32_t>(Entries.size());
  auto Bad = [](uint32_t Row, const char *Why) {
    return malformed("column row " + std::to_string(Row) + ": " + Why);
  };

  // Direct bases of \p Row whose entries are inside this column's span
  // and non-absent - the edges that contributed a value when the kernel
  // computed the row. (A base beyond the span can only be a class added
  // after a shared column's epoch; sharing is only legal when such a
  // base contributes nothing.)
  auto countContributingBases = [&](uint32_t Row) {
    uint32_t Count = 0;
    for (uint32_t I = Edges.BaseOff[Row], End = Edges.BaseOff[Row + 1];
         I != End; ++I) {
      uint32_t B = Edges.Bases[I].Index;
      if (B < NumRows && Entries[B].kind() != EntryKind::Absent)
        ++Count;
    }
    return Count;
  };

  std::vector<uint32_t> &NonAbsentRows = NonAbsentScratch;
  NonAbsentRows.clear();

  for (uint32_t Row = 0; Row != NumRows; ++Row) {
    const CompactEntry &E = Entries[Row];
    if ((E.KindAndFlags & ~7u) != 0 || E.Reserved0 != 0 || E.Reserved1 != 0)
      return Bad(Row, "reserved bits set");

    switch (E.KindAndFlags & 3u) {
    case 0: { // Absent: exactly the all-default entry
      if (std::memcmp(&E, &AbsentEntry, sizeof(CompactEntry)) != 0)
        return Bad(Row, "absent entry with payload");
      break;
    }
    case 3:
      return Bad(Row, "impossible entry kind");

    case 2: { // Blue: only the pool reference is meaningful
      if (E.KindAndFlags != 2 || E.AccessByte != 0 ||
          E.DefiningClass.isValid() || E.RepresentativeV.isValid() ||
          E.Via.isValid())
        return Bad(Row, "blue entry with red payload");
      // An ambiguity is always inherited from somewhere.
      if (countContributingBases(Row) == 0)
        return Bad(Row, "blue entry with no inherited member");
      NonAbsentRows.push_back(Row);
      if (E.PoolCount == 0)
        return Bad(Row, "empty blue set");
      if (uint64_t(E.InlineOrOffset) + E.PoolCount > BluePool.size())
        return Bad(Row, "blue pool reference out of range");
      const BlueElement *Prev = nullptr;
      for (uint32_t I = 0; I != E.PoolCount; ++I) {
        const BlueElement &Elem = BluePool[E.InlineOrOffset + I];
        if (!validClassRef(Elem.LeastVirtual.rawValue(), NumRows) ||
            !Elem.DefiningClass.isValid() ||
            Elem.DefiningClass.index() >= NumRows)
          return Bad(Row, "blue element referencing an impossible class");
        if (Prev && !(*Prev < Elem))
          return Bad(Row, "blue set not sorted and unique");
        Prev = &Elem;
      }
      break;
    }

    case 1: { // Red
      NonAbsentRows.push_back(Row);
      if (E.AccessByte > 2)
        return Bad(Row, "impossible access");
      if (!E.DefiningClass.isValid() || E.DefiningClass.index() >= NumRows)
        return Bad(Row, "defining class out of range");

      if (E.PoolCount == 1) {
        return Bad(Row, "pooled red singleton (singletons are inlined)");
      } else if (E.PoolCount == 0) {
        if (!validClassRef(E.InlineOrOffset, NumRows))
          return Bad(Row, "inline red V out of range");
      } else {
        if (uint64_t(E.InlineOrOffset) + E.PoolCount > RedPool.size())
          return Bad(Row, "red pool reference out of range");
        uint32_t PrevRaw = 0;
        for (uint32_t I = 0; I != E.PoolCount; ++I) {
          uint32_t Raw = RedPool[E.InlineOrOffset + I].rawValue();
          if (!validClassRef(Raw, NumRows))
            return Bad(Row, "pooled red V out of range");
          if (I != 0 && Raw <= PrevRaw)
            return Bad(Row, "red member set not sorted and unique");
          PrevRaw = Raw;
        }
      }

      if (!E.Via.isValid()) {
        // Kernel line [12]: a local declaration. Everything else about
        // the entry is forced.
        if (E.DefiningClass.index() != Row || E.RepresentativeV.isValid() ||
            E.PoolCount != 0 || E.InlineOrOffset != ClassId::InvalidValue ||
            E.staticMerged())
          return Bad(Row, "local-declaration entry with inherited payload");
        LocalRows.push_back(Row);
        break;
      }

      // Inherited: the Via chain must follow genuine direct-base edges
      // (the CHG is acyclic, so chains terminate) through red entries
      // agreeing on the defining class, with leastVirtual and access
      // composed per Definition 15 / Section 6. Exactly the facts
      // entryToResult's asserts re-derive.
      if (E.Via.index() >= NumRows)
        return Bad(Row, "via link out of range");
      // One linear scan of the row's flattened base list yields the
      // edge's kind and access together. Hierarchies bound base lists
      // tightly (a handful per class), so this beats the finalized edge
      // index's two hash lookups per inherited entry - the former
      // validation hotspot on wide hierarchies.
      const FlatEdges::Base *Edge = nullptr;
      for (uint32_t I = Edges.BaseOff[Row], End = Edges.BaseOff[Row + 1];
           I != End; ++I)
        if (Edges.Bases[I].Index == E.Via.index()) {
          Edge = &Edges.Bases[I];
          break;
        }
      if (!Edge)
        return Bad(Row, "via link is not a direct base");
      auto EdgeKind = static_cast<InheritanceKind>(Edge->Kind);
      auto EdgeAccess = static_cast<AccessSpec>(Edge->Access);
      const CompactEntry &ViaE = Entries[E.Via.index()];
      if (ViaE.kind() != EntryKind::Red)
        return Bad(Row, "via chain through a non-red entry");
      if (ViaE.DefiningClass != E.DefiningClass)
        return Bad(Row, "via chain changes the defining class");
      if (E.RepresentativeV !=
          composeLeastVirtual(ViaE.RepresentativeV, E.Via, EdgeKind))
        return Bad(Row, "representative leastVirtual breaks composition");
      if (E.access() != restrictAccess(ViaE.access(), EdgeAccess))
        return Bad(Row, "access breaks witness-path composition");

      // The member set and the StaticMerged flag follow the kernel's
      // fold: the set starts as the via base's set composed across the
      // edge (Definition 15, the same o as the representative above)
      // and can only grow at a static merge, and the flag starts as
      // the via base's and can only be turned on (at a merge, which
      // needs a second contributing edge). Re-checking that here is
      // what makes the flag - which decides whether a result renders as
      // one shared static entity or a specific subobject - unforgeable.
      bool Grew = false;
      if (ViaE.PoolCount == 0 && E.PoolCount == 0) {
        // Singleton through singleton, by far the common case: the set
        // must be exactly the composed one.
        if (E.InlineOrOffset !=
            composeLeastVirtual(ClassId(ViaE.InlineOrOffset), E.Via, EdgeKind)
                .rawValue())
          return Bad(Row, "member set drops an inherited member");
      } else {
        uint32_t ViaPool = ViaE.PoolCount;
        if (ViaPool != 0 &&
            uint64_t(ViaE.InlineOrOffset) + ViaPool > RedPool.size())
          return Bad(Row, "via entry's red pool reference out of range");
        uint32_t ComposedBuf[8];
        std::vector<uint32_t> ComposedHeap;
        uint32_t ViaCount = ViaPool == 0 ? 1 : ViaPool;
        uint32_t *Composed = ComposedBuf;
        if (ViaCount > 8) {
          ComposedHeap.resize(ViaCount);
          Composed = ComposedHeap.data();
        }
        for (uint32_t I = 0; I != ViaCount; ++I) {
          ClassId V = ViaPool == 0 ? ClassId(ViaE.InlineOrOffset)
                                   : RedPool[ViaE.InlineOrOffset + I];
          Composed[I] = composeLeastVirtual(V, E.Via, EdgeKind).rawValue();
        }
        std::sort(Composed, Composed + ViaCount);
        ViaCount = static_cast<uint32_t>(
            std::unique(Composed, Composed + ViaCount) - Composed);
        // E's own set, already checked sorted-and-unique above, must
        // contain every composed member.
        auto OwnV = [&](uint32_t I) {
          return E.PoolCount == 0 ? E.InlineOrOffset
                                  : RedPool[E.InlineOrOffset + I].rawValue();
        };
        uint32_t OwnCount = E.PoolCount == 0 ? 1 : E.PoolCount;
        uint32_t OwnIdx = 0;
        for (uint32_t I = 0; I != ViaCount; ++I) {
          while (OwnIdx != OwnCount && OwnV(OwnIdx) < Composed[I])
            ++OwnIdx;
          if (OwnIdx == OwnCount || OwnV(OwnIdx) != Composed[I])
            return Bad(Row, "member set drops an inherited member");
        }
        Grew = OwnCount > ViaCount;
      }
      if (ViaE.staticMerged() && !E.staticMerged())
        return Bad(Row, "static-merge flag dropped along the via chain");
      if (Grew && !E.staticMerged())
        return Bad(Row, "member set grew without a static merge");
      bool MergedHere = E.staticMerged() && !ViaE.staticMerged();
      if (Grew || MergedHere) {
        if (countContributingBases(Row) < 2)
          return Bad(Row, "static merge with a single incoming edge");
        MergeRows.push_back(Row);
      }
      break;
    }
    }
  }

  // Lookup never loses a member on the way down: a row may be absent
  // only if every contributing base is absent too. (A blue entry's
  // class ids are already all-invalid, so zeroing its pool reference
  // and kind forges a byte-perfect absent entry; this is the check
  // that catches it.) Sweeping the derived lists of the non-absent
  // rows checks the same property in time proportional to the members
  // actually present, instead of walking the base list of every
  // (mostly absent) row.
  for (uint32_t Row : NonAbsentRows)
    for (uint32_t I = Edges.DerivedOff[Row], End = Edges.DerivedOff[Row + 1];
         I != End; ++I) {
      uint32_t D = Edges.Derived[I];
      if (D < NumRows && Entries[D].kind() == EntryKind::Absent)
        return Bad(D, "absent entry but a direct base has the member");
    }
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Column section parsing
//===----------------------------------------------------------------------===//

/// Parses the columns section from \p Section. When \p Arena is non-null
/// and the section sits at entry alignment (every in-section payload
/// offset is a multiple of four by construction, so the base settles it),
/// the columns *borrow* their entry and pool storage straight out of the
/// file buffer - the dominant cost of a warm start used to be copying
/// these bytes into freshly zeroed vectors. \p Arena keeps the buffer
/// alive for as long as any borrowed column does. A null or misaligned
/// arena falls back to owned copies, bit-identical behavior.
Status parseColumns(std::string_view Section, std::shared_ptr<const void> Arena,
                    const Hierarchy &H, uint32_t NumMembers,
                    uint32_t HierarchyCrc,
                    std::vector<std::shared_ptr<const Column>> &Out) {
  ByteReader R(Section);
  uint32_t NumClasses = H.numClasses();
  bool Borrow = Arena != nullptr &&
                reinterpret_cast<uintptr_t>(Section.data()) %
                        alignof(CompactEntry) ==
                    0;

  // The table must have been tabulated over *these* hierarchy bytes. The
  // binding is stored inside the columns payload (under its own CRC), so
  // recomputing the section-table checksums after editing the hierarchy
  // does not re-establish it.
  uint32_t StoredBinding = 0;
  if (!R.readU32(StoredBinding))
    return malformed("columns section truncated before the hierarchy binding");
  if (StoredBinding != HierarchyCrc)
    return malformed("columns were tabulated over a different hierarchy");

  uint32_t DistinctCount = 0;
  if (!R.readU32(DistinctCount))
    return malformed("columns section truncated before column count");
  // Every stored column must be referenced by some member, so more
  // distinct columns than members is impossible; this also caps the
  // upcoming allocations.
  if (DistinctCount > NumMembers)
    return malformed("more distinct columns than member names");

  std::vector<std::shared_ptr<const Column>> Distinct;
  std::vector<std::vector<uint32_t>> LocalRows(DistinctCount);
  std::vector<std::vector<uint32_t>> MergeRows(DistinctCount);
  FlatEdges Edges(H);
  std::vector<uint32_t> NonAbsentScratch;
  Distinct.reserve(DistinctCount);
  for (uint32_t D = 0; D != DistinctCount; ++D) {
    uint32_t NumRows = 0, RedLen = 0, BlueLen = 0;
    uint64_t StoredHash = 0;
    if (!R.readU32(NumRows) || !R.readU32(RedLen) || !R.readU32(BlueLen) ||
        !R.readU64(StoredHash))
      return malformed("columns section truncated in column header");
    // Incremental rewarm shares columns spanning an older (never a
    // larger) epoch; resultFor answers NotFound beyond the span.
    if (NumRows > NumClasses)
      return malformed("column spans more rows than the hierarchy");

    uint64_t NeedBytes = uint64_t(NumRows) * sizeof(CompactEntry) +
                         uint64_t(RedLen) * sizeof(ClassId) +
                         uint64_t(BlueLen) * sizeof(BlueElement);
    if (NeedBytes > R.remaining())
      return malformed("column payload exceeds the section");

    std::span<const CompactEntry> Entries;
    std::span<const ClassId> RedPool;
    std::span<const BlueElement> BluePool;
    std::vector<CompactEntry> OwnedEntries;
    std::vector<ClassId> OwnedRed;
    std::vector<BlueElement> OwnedBlue;
    if (Borrow) {
      // All three types are trivially-copyable PODs with
      // unique object representations; reinterpreting the checksummed
      // file bytes as them is exactly what the copy below would produce.
      std::string_view EV, RV, BV;
      if (!R.readView(EV, uint64_t(NumRows) * sizeof(CompactEntry)) ||
          !R.readView(RV, uint64_t(RedLen) * sizeof(ClassId)) ||
          !R.readView(BV, uint64_t(BlueLen) * sizeof(BlueElement)))
        return malformed("columns section truncated in column payload");
      Entries = {reinterpret_cast<const CompactEntry *>(EV.data()), NumRows};
      RedPool = {reinterpret_cast<const ClassId *>(RV.data()), RedLen};
      BluePool = {reinterpret_cast<const BlueElement *>(BV.data()), BlueLen};
    } else {
      OwnedEntries.resize(NumRows);
      OwnedRed.resize(RedLen);
      OwnedBlue.resize(BlueLen);
      bool ReadOk =
          R.readBytes(OwnedEntries.data(), NumRows * sizeof(CompactEntry)) &&
          R.readBytes(OwnedRed.data(), RedLen * sizeof(ClassId)) &&
          R.readBytes(OwnedBlue.data(), BlueLen * sizeof(BlueElement));
      if (!ReadOk)
        return malformed("columns section truncated in column payload");
      Entries = OwnedEntries;
      RedPool = OwnedRed;
      BluePool = OwnedBlue;
    }

    // The sweep also collects where this column claims local
    // declarations (kernel line [12] rows); the member-reference pass
    // below holds every member that adopts the column to exactly those
    // declaration sites.
    if (Status S = validateColumn(Edges, Entries, RedPool, BluePool,
                                  LocalRows[D], MergeRows[D], NonAbsentScratch);
        !S.isOk())
      return S;

    auto Col = std::make_shared<Column>();
    Col->Data = Borrow ? CompactColumn::fromBorrowed(Arena, Entries, RedPool,
                                                     BluePool)
                       : CompactColumn::fromRaw(Entries, std::move(OwnedRed),
                                                std::move(OwnedBlue));
    // The stored hash covers the dense bytes and is not read back: the
    // dedup key is the paged hash, which reads only the live pages.
    (void)StoredHash;
    Col->StructuralHash = Col->Data.structuralHash();
    Col->Computed = BitVector(NumRows);
    Col->Computed.setAll();
    Col->Complete = true;
    Distinct.push_back(std::move(Col));
  }

  uint32_t RefCount = 0;
  if (!R.readU32(RefCount))
    return malformed("columns section truncated before member references");
  if (RefCount != NumMembers)
    return malformed("member reference count disagrees with the header");

  // A column is correct for a member only if its local rows are exactly
  // the member's declaration sites (Hierarchy::declarers, ascending) -
  // kernel line [12] fires iff the class declares the member, and
  // inherited candidates always carry a valid Via. This pins every
  // reference to its member, so a corrupted reference cannot quietly
  // hand one member another member's (individually well-formed) column.
  std::vector<bool> Referenced(DistinctCount, false);
  Out.reserve(RefCount);
  for (uint32_t I = 0; I != RefCount; ++I) {
    uint32_t Ref = 0;
    if (!R.readU32(Ref))
      return malformed("columns section truncated in member references");
    if (Ref >= DistinctCount)
      return malformed("member references a nonexistent column");

    Symbol Member = H.allMemberNames()[I];
    std::span<const ClassId> Sites = H.declarers(Member);
    // Restrict to the column's span: rewarm-shared columns may stop
    // short of declaration sites in newer classes.
    ClassId Span(Distinct[Ref]->numRows());
    auto SitesEnd = std::lower_bound(Sites.begin(), Sites.end(), Span);
    const std::vector<uint32_t> &Local = LocalRows[Ref];
    if (!std::equal(Sites.begin(), SitesEnd, Local.begin(), Local.end(),
                    [](ClassId Site, uint32_t Row) {
                      return Site.index() == Row;
                    }))
      return malformed("column's local declarations disagree with member '" +
                       std::string(H.spelling(Member)) +
                       "' declaration sites");
    // A static merge is only possible for a member declared static in
    // the entry's defining class (Definition 17(2)); the column sweep
    // could not check that without knowing the member.
    for (uint32_t MergeRow : MergeRows[Ref]) {
      const CompactEntry &E = Distinct[Ref]->Data[MergeRow];
      const MemberDecl *Decl = H.declaredMember(E.DefiningClass, Member);
      if (!Decl || !Decl->IsStatic)
        return malformed("static merge on the non-static member '" +
                         std::string(H.spelling(Member)) + "'");
    }

    Referenced[Ref] = true;
    Out.push_back(Distinct[Ref]);
  }
  for (uint32_t D = 0; D != DistinctCount; ++D)
    if (!Referenced[D])
      return malformed("stored column referenced by no member");
  return consumeSectionPad(R, "columns section");
}

//===----------------------------------------------------------------------===//
// Header / section-table parsing (shared by load and introspection)
//===----------------------------------------------------------------------===//

struct ParsedHeader {
  uint64_t Epoch = 0;
  uint32_t NumClasses = 0;
  uint32_t NumMembers = 0;
  uint32_t Flags = 0;
  std::vector<SnapshotSectionInfo> Sections;
  size_t PayloadStart = 0; // end of header crc
};

/// Parses geometry only; \p VerifyCrcs additionally checks the header
/// CRC (section payload CRCs are the caller's job, so introspection and
/// resealing can work on deliberately corrupted payloads).
Status parseHeader(std::string_view Bytes, bool VerifyCrcs, ParsedHeader &Out) {
  ByteReader R(Bytes);
  char FileMagic[8];
  uint32_t Version = 0, SectionCount = 0;
  if (!R.readBytes(FileMagic, sizeof(FileMagic)))
    return malformed("file shorter than the magic");
  if (std::memcmp(FileMagic, Magic, sizeof(Magic)) != 0)
    return Status::error(ErrorCode::SnapshotVersionMismatch,
                         "not a memlook snapshot (bad magic)");
  if (!R.readU32(Version))
    return malformed("file truncated before the version");
  if (Version != SnapshotFormatVersion)
    return Status::error(ErrorCode::SnapshotVersionMismatch,
                         "snapshot format version " + std::to_string(Version) +
                             " (this build reads " +
                             std::to_string(SnapshotFormatVersion) + ")");
  if (!R.readU64(Out.Epoch) || !R.readU32(Out.NumClasses) ||
      !R.readU32(Out.NumMembers) || !R.readU32(Out.Flags) ||
      !R.readU32(SectionCount))
    return malformed("file truncated inside the fixed header");
  if ((Out.Flags & ~FlagHasTable) != 0)
    return malformed("unknown header flags");
  uint32_t ExpectSections = 2 + ((Out.Flags & FlagHasTable) ? 1 : 0);
  if (SectionCount != ExpectSections)
    return malformed("section count disagrees with the header flags");

  size_t HeaderBytes = FixedHeaderBytes + size_t(SectionCount) * SectionEntryBytes;
  if (Bytes.size() < HeaderBytes + sizeof(uint32_t))
    return malformed("file truncated inside the section table");

  const uint32_t ExpectedKinds[3] = {SectionStrings, SectionHierarchy,
                                     SectionColumns};
  uint64_t PrevEnd = HeaderBytes + sizeof(uint32_t);
  for (uint32_t I = 0; I != SectionCount; ++I) {
    SnapshotSectionInfo Info;
    if (!R.readU32(Info.Kind) || !R.readU32(Info.StoredCrc) ||
        !R.readU64(Info.Offset) || !R.readU64(Info.Size))
      return malformed("file truncated inside the section table");
    if (Info.Kind != ExpectedKinds[I])
      return malformed("unexpected section kind or order");
    if (Info.Size > Bytes.size() || Info.Offset > Bytes.size() - Info.Size)
      return malformed("section extends past the end of the file");
    // Writers zero-pad every payload to eight bytes; with the 8-aligned
    // header region this keeps all section bases aligned enough for the
    // loader to borrow typed spans out of the buffer.
    if (Info.Size % 8 != 0)
      return malformed("section size is not a multiple of eight");
    // Sections are contiguous and packed: with the final-end check below
    // this puts every byte of the file under exactly one CRC, so no
    // mutation can hide in a gap.
    if (Info.Offset != PrevEnd)
      return malformed("section payloads are not contiguous");
    PrevEnd = Info.Offset + Info.Size;
    Out.Sections.push_back(Info);
  }
  if (PrevEnd != Bytes.size())
    return malformed("trailing bytes after the last section");
  Out.PayloadStart = HeaderBytes + sizeof(uint32_t);

  if (VerifyCrcs) {
    uint32_t StoredHeaderCrc = 0;
    std::memcpy(&StoredHeaderCrc, Bytes.data() + HeaderBytes,
                sizeof(StoredHeaderCrc));
    if (crc32c(Bytes.substr(0, HeaderBytes)) != StoredHeaderCrc)
      return Status::error(ErrorCode::SnapshotChecksumMismatch,
                           "header checksum mismatch");
  }
  return Status::ok();
}

std::string_view sectionBytes(std::string_view Bytes,
                              const SnapshotSectionInfo &Info) {
  return Bytes.substr(Info.Offset, Info.Size);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::string memlook::service::serializeSnapshot(uint64_t Epoch,
                                                const Hierarchy &H,
                                                const LookupTable *Table) {
  assert(H.isFinalized() && "snapshots hold finalized hierarchies");

  StringTableBuilder Strings;
  std::string HierarchyPayload = serializeHierarchy(H, Strings);
  // Pad before computing the columns binding: the binding must equal the
  // hierarchy section's table CRC, which covers the pad.
  padSectionTo8(HierarchyPayload);
  std::string ColumnsPayload;
  if (Table) {
    ColumnsPayload = serializeColumns(H, *Table, crc32c(HierarchyPayload));
    padSectionTo8(ColumnsPayload);
  }
  std::string StringsPayload = Strings.payload();
  padSectionTo8(StringsPayload);

  struct Pending {
    uint32_t Kind;
    const std::string *Payload;
  };
  std::vector<Pending> Sections = {{SectionStrings, &StringsPayload},
                                   {SectionHierarchy, &HierarchyPayload}};
  if (Table)
    Sections.push_back({SectionColumns, &ColumnsPayload});

  size_t HeaderBytes =
      FixedHeaderBytes + Sections.size() * SectionEntryBytes;
  std::string Out;
  Out.reserve(HeaderBytes + sizeof(uint32_t) + StringsPayload.size() +
              HierarchyPayload.size() + ColumnsPayload.size());

  Out.append(Magic, sizeof(Magic));
  putU32(Out, SnapshotFormatVersion);
  putU64(Out, Epoch);
  putU32(Out, H.numClasses());
  putU32(Out, static_cast<uint32_t>(H.allMemberNames().size()));
  putU32(Out, Table ? FlagHasTable : 0);
  putU32(Out, static_cast<uint32_t>(Sections.size()));

  uint64_t Offset = HeaderBytes + sizeof(uint32_t);
  for (const Pending &S : Sections) {
    putU32(Out, S.Kind);
    putU32(Out, crc32c(*S.Payload));
    putU64(Out, Offset);
    putU64(Out, S.Payload->size());
    Offset += S.Payload->size();
  }
  putU32(Out, crc32c(std::string_view(Out))); // header crc

  for (const Pending &S : Sections)
    Out.append(*S.Payload);
  return Out;
}

std::string memlook::service::serializeSnapshot(const Snapshot &Snap) {
  return serializeSnapshot(Snap.Epoch, *Snap.H,
                           Snap.warm() ? Snap.Table.get() : nullptr);
}

Expected<SnapshotPayload>
memlook::service::deserializeSnapshot(std::shared_ptr<const std::string> Bytes,
                                      const ResourceBudget &Budget) {
  if (!Bytes)
    return malformed("null snapshot buffer");
  std::string_view View(*Bytes);

  ParsedHeader Header;
  if (Status S = parseHeader(View, /*VerifyCrcs=*/true, Header); !S.isOk())
    return S;
  if (Header.NumClasses > Budget.MaxClasses)
    return Status::error(ErrorCode::BudgetExceeded,
                         "snapshot hierarchy exceeds the class budget");
  if (Header.NumMembers > Budget.MaxMemberDecls)
    return Status::error(ErrorCode::BudgetExceeded,
                         "snapshot hierarchy exceeds the member budget");

  for (const SnapshotSectionInfo &Info : Header.Sections)
    if (crc32c(sectionBytes(View, Info)) != Info.StoredCrc)
      return Status::error(ErrorCode::SnapshotChecksumMismatch,
                           "section " + std::to_string(Info.Kind) +
                               " checksum mismatch");

  // Strings: zero-copy views into the (checksummed) input buffer; they
  // only live until the hierarchy replay copies what it keeps.
  std::vector<std::string_view> Strings;
  {
    ByteReader R(sectionBytes(View, Header.Sections[0]));
    uint32_t Count = 0;
    if (!R.readU32(Count))
      return malformed("string table truncated before its count");
    if (Count > R.remaining() / sizeof(uint32_t))
      return malformed("string count exceeds the section");
    Strings.reserve(Count);
    for (uint32_t I = 0; I != Count; ++I) {
      uint32_t Len = 0;
      std::string_view S;
      if (!R.readU32(Len) || !R.readView(S, Len))
        return malformed("string table truncated in string " +
                         std::to_string(I));
      Strings.push_back(S);
    }
    if (Status S = consumeSectionPad(R, "string table"); !S.isOk())
      return S;
  }

  SnapshotPayload Payload;
  Payload.Epoch = Header.Epoch;
  auto H = std::make_shared<Hierarchy>();
  {
    ByteReader R(sectionBytes(View, Header.Sections[1]));
    if (Status S = replayHierarchy(R, Header.NumClasses, Header.NumMembers,
                                   Strings, Budget, *H);
        !S.isOk())
      return S;
  }

  if ((Header.Flags & FlagHasTable) != 0) {
    std::vector<std::shared_ptr<const Column>> Columns;
    // The section CRCs were verified above, so the hierarchy section's
    // stored CRC is the CRC of the bytes the hierarchy was replayed from.
    // Columns borrow their storage from the buffer, pinned by Bytes.
    if (Status S = parseColumns(sectionBytes(View, Header.Sections[2]), Bytes,
                                *H, Header.NumMembers,
                                Header.Sections[1].StoredCrc, Columns);
        !S.isOk())
      return S;
    Payload.Table = LookupTable::fromColumns(*H, std::move(Columns));
  }
  Payload.H = std::move(H);
  return Payload;
}

Expected<SnapshotPayload>
memlook::service::deserializeSnapshot(std::string_view Bytes,
                                      const ResourceBudget &Budget) {
  // One up-front copy pins the bytes in an arena the columns can borrow
  // from; that single large memcpy is far cheaper than the per-column
  // zeroed-vector copies it replaces.
  return deserializeSnapshot(std::make_shared<const std::string>(Bytes),
                             Budget);
}

Status memlook::service::writeSnapshotFile(const std::string &Path,
                                           const Snapshot &Snap) {
  return writeFileAtomic(Path, serializeSnapshot(Snap));
}

Expected<SnapshotPayload>
memlook::service::readSnapshotFile(const std::string &Path,
                                   const ResourceBudget &Budget,
                                   uint64_t MaxFileBytes) {
  Expected<std::string> Bytes = readFileCapped(Path, MaxFileBytes);
  if (!Bytes)
    return Bytes.status();
  // Hand the file buffer over as the arena the loaded columns borrow
  // from - a warm start never copies the column bytes at all.
  return deserializeSnapshot(
      std::make_shared<const std::string>(std::move(*Bytes)), Budget);
}

Expected<std::vector<SnapshotSectionInfo>>
memlook::service::inspectSnapshotSections(std::string_view Bytes) {
  ParsedHeader Header;
  if (Status S = parseHeader(Bytes, /*VerifyCrcs=*/false, Header); !S.isOk())
    return S;
  return Header.Sections;
}

Status memlook::service::resealSnapshotChecksums(std::string &Bytes) {
  ParsedHeader Header;
  if (Status S = parseHeader(Bytes, /*VerifyCrcs=*/false, Header); !S.isOk())
    return S;

  for (size_t I = 0; I != Header.Sections.size(); ++I) {
    const SnapshotSectionInfo &Info = Header.Sections[I];
    uint32_t Crc = crc32c(std::string_view(Bytes).substr(Info.Offset,
                                                        Info.Size));
    // Crc field sits 4 bytes into the section-table entry.
    patchU32(Bytes, FixedHeaderBytes + I * SectionEntryBytes + 4, Crc);
  }
  size_t HeaderBytes =
      FixedHeaderBytes + Header.Sections.size() * SectionEntryBytes;
  patchU32(Bytes, HeaderBytes, crc32c(std::string_view(Bytes).substr(0, HeaderBytes)));
  return Status::ok();
}
