//===- memlook/core/CompactColumn.h - Compact table columns -----*- C++ -*-===//
//
// Part of the memlook project: a reproduction of Ramalingam & Srinivasan,
// "A Member Lookup Algorithm for C++", PLDI 1997.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compact storage form of one member column of the Figure 8 table.
///
/// The paper's entry is the pair abstraction (ldc, leastVirtual) - a
/// couple of machine words - yet a naive struct-of-vectors table spends
/// most of its bytes and build time on per-entry heap vectors that are
/// empty or singletons in almost every slot: a red set is a singleton
/// unless the Definition 17(2) static-member rule merged subobjects,
/// and blue sets only exist at ambiguous entries. This header stores a
/// column as two tiers:
///
///  * fixed-size 24-byte POD entries (kind, defining class,
///    representative V, via link, access and flags packed into one byte
///    each, and the red singleton V inlined into the entry), held in
///    pages of PageRows rows behind a page table of one pointer per
///    page;
///  * two append-only overflow pools - one of ClassId for the rare
///    multi-element red member sets, one of BlueElement for blue sets -
///    referenced by (offset, count) instead of owning vectors.
///
/// By Definitions 7-11, lookup[C, m] is non-absent exactly on the
/// down-closure of m's declarers, which on a forest is a sliver of the
/// class range. So every page whose rows are all Absent points at one
/// shared read-only zero page, and only pages that hold a red or blue
/// entry are stored; a column's live pages share one allocation. A read
/// costs one page-table load more than a dense array would.
///
/// Entries are written exactly once (topological order guarantees every
/// base entry is final before a derived entry reads it), and a page goes
/// live only when slot() is taken to write a red or blue entry into it.
/// So the pools never hold garbage, value-equal columns built by the
/// deterministic kernel have the same live pages with the same bytes,
/// and structural column deduplication (LookupTable) is a memcmp of live
/// pages.
///
/// A column either *owns* its pages (the kernel build path) or *borrows*
/// them (the snapshot load path: page pointers and pool spans into a
/// caller-provided arena, pinned by a keepalive handle; all-absent pages
/// of the arena map to the zero page). Borrowing is what makes a warm
/// start cheap - the loader validates the arena bytes in place and never
/// copies the table - at the cost that a borrowed column keeps its whole
/// arena alive. Readers cannot tell the modes apart; the mutating
/// interface is owned-mode only.
///
//===----------------------------------------------------------------------===//

#ifndef MEMLOOK_CORE_COMPACTCOLUMN_H
#define MEMLOOK_CORE_COMPACTCOLUMN_H

#include "memlook/chg/Hierarchy.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace memlook {

/// Classification of one lookup[C, m] entry.
enum class EntryKind : uint8_t {
  Absent = 0, ///< m is not a member of C
  Red = 1,    ///< unambiguous
  Blue = 2,   ///< ambiguous
};

/// One element of a blue set: the leastVirtual abstraction of a
/// definition plus its defining class (the enrichment the static-member
/// generalization needs; see DominanceLookupEngine.h).
struct BlueElement {
  ClassId LeastVirtual;
  ClassId DefiningClass;

  friend bool operator==(BlueElement A, BlueElement B) {
    return A.LeastVirtual == B.LeastVirtual &&
           A.DefiningClass == B.DefiningClass;
  }
  friend bool operator<(BlueElement A, BlueElement B) {
    if (A.LeastVirtual != B.LeastVirtual)
      return A.LeastVirtual < B.LeastVirtual;
    return A.DefiningClass < B.DefiningClass;
  }
};

/// One fixed-size table slot. All variable-length payload lives in the
/// owning CompactColumn's pools; the common cases (absent, red with a
/// singleton member set) never touch a pool at all.
struct CompactEntry {
  /// Red: ldc of the result (shared by the whole maximal set,
  /// Definition 17(2)).
  ClassId DefiningClass;
  /// Red: leastVirtual of the representative member, whose witness path
  /// the Via chain reconstructs.
  ClassId RepresentativeV;
  /// Red: the direct base the representative was inherited through, or
  /// invalid when m is declared in C itself.
  ClassId Via;
  /// Red with PoolCount == 0: the raw id of the single member V
  /// (ClassId::InvalidValue encodes the paper's Omega). Otherwise: the
  /// entry's offset into the red pool (red) or blue pool (blue).
  uint32_t InlineOrOffset = 0;
  /// Red: 0 means "singleton member set, inlined"; otherwise the number
  /// of pooled red Vs. Blue: the number of pooled blue elements.
  uint32_t PoolCount = 0;
  /// Bits 0-1: EntryKind. Bit 2: StaticMerged (the maximal set provably
  /// names more than one subobject of one static entity).
  uint8_t KindAndFlags = 0;
  /// Red: the representative's access composed along its witness path
  /// (AccessSpec, Section 6).
  uint8_t AccessByte = 0;
  /// Always zero, so the entry has no indeterminate bytes and columns
  /// can be hashed and compared bytewise.
  uint8_t Reserved0 = 0;
  uint8_t Reserved1 = 0;

  EntryKind kind() const { return static_cast<EntryKind>(KindAndFlags & 3); }
  bool staticMerged() const { return (KindAndFlags & 4) != 0; }
  AccessSpec access() const { return static_cast<AccessSpec>(AccessByte); }
};

static_assert(sizeof(CompactEntry) == 24, "the POD entry is 24 bytes");
static_assert(std::has_unique_object_representations_v<CompactEntry>,
              "no padding: columns are hashed and compared bytewise");
static_assert(std::has_unique_object_representations_v<BlueElement>,
              "no padding: pools are hashed and compared bytewise");

/// One member column in compact form: |N| fixed-size entries in pages
/// plus the column's overflow pools.
class CompactColumn {
public:
  /// Rows per page: a page is 1.5 KB of entries.
  static constexpr uint32_t PageRows = 64;

  CompactColumn() = default;
  CompactColumn(const CompactColumn &Other) { *this = Other; }
  CompactColumn(CompactColumn &&Other) noexcept { *this = std::move(Other); }
  /// Moves hand the page block over; the source is left empty.
  CompactColumn &operator=(CompactColumn &&Other) noexcept {
    NumRows = std::exchange(Other.NumRows, 0);
    Pages = std::exchange(Other.Pages, {});
    Store = std::move(Other.Store);
    StorePages = std::exchange(Other.StorePages, 0);
    LivePages = std::exchange(Other.LivePages, {});
    RedPool = std::exchange(Other.RedPool, {});
    BluePool = std::exchange(Other.BluePool, {});
    Keepalive = std::move(Other.Keepalive);
    BorrowedRed = std::exchange(Other.BorrowedRed, {});
    BorrowedBlue = std::exchange(Other.BorrowedBlue, {});
    return *this;
  }
  /// Copies own their live pages: a copy allocates exactly them.
  CompactColumn &operator=(const CompactColumn &Other) {
    if (this == &Other)
      return *this;
    NumRows = Other.NumRows;
    Pages = Other.Pages;
    LivePages = Other.LivePages;
    RedPool = Other.RedPool;
    BluePool = Other.BluePool;
    Keepalive = Other.Keepalive;
    BorrowedRed = Other.BorrowedRed;
    BorrowedBlue = Other.BorrowedBlue;
    Store.reset();
    StorePages = 0;
    if (!Keepalive && !LivePages.empty()) {
      reallocateStore(LivePages.size());
      std::memcpy(Store.get(), Other.Store.get(),
                  LivePages.size() * PageRows * sizeof(CompactEntry));
    }
    return *this;
  }

  bool empty() const { return NumRows == 0; }
  uint32_t size() const { return NumRows; }

  /// (Re)initializes to \p NumClasses all-Absent entries (every page the
  /// zero page) with empty pools, in owned mode (dropping any borrowed
  /// arena).
  void reset(uint32_t NumClasses) {
    Keepalive.reset();
    BorrowedRed = {};
    BorrowedBlue = {};
    NumRows = NumClasses;
    Pages.assign(pagesFor(NumClasses), zeroPage());
    LivePages.clear();
    RedPool.clear();
    BluePool.clear();
  }

  /// Sizes the live-page allocation for \p NumPages pages, so a build
  /// that knows which pages it will write allocates once. Owned mode
  /// only.
  void reservePages(uint32_t NumPages) {
    if (NumPages > StorePages)
      reallocateStore(NumPages);
  }

  const CompactEntry &operator[](uint32_t Row) const {
    return Pages[Row / PageRows][Row % PageRows];
  }

  /// Mutable slot access for the kernel, which takes it only to write a
  /// red or blue entry (via setRed/setBlue) exactly once. Makes the
  /// row's page live on first use. Owned mode only.
  CompactEntry &slot(uint32_t Row) {
    assert(!Keepalive && "borrowed columns are immutable");
    assert(Row < NumRows && "row out of range");
    const CompactEntry *&Page = Pages[Row / PageRows];
    if (Page == zeroPage()) {
      if (LivePages.size() == StorePages)
        reallocateStore(std::max<size_t>(2 * StorePages, 1));
      CompactEntry *Fresh = Store.get() + LivePages.size() * PageRows;
      std::uninitialized_fill_n(Fresh, PageRows, CompactEntry{});
      LivePages.push_back(Row / PageRows);
      Page = Fresh;
    }
    return Store[size_t(Page - Store.get()) + Row % PageRows];
  }

  //===--------------------------------------------------------------------===
  // Pages
  //===--------------------------------------------------------------------===

  uint32_t numPages() const { return static_cast<uint32_t>(Pages.size()); }

  /// The rows of page \p P (PageRows of them, fewer on the last page).
  std::span<const CompactEntry> page(uint32_t P) const {
    return {Pages[P], std::min(PageRows, NumRows - P * PageRows)};
  }

  /// False iff page \p P is the shared zero page (all rows Absent).
  bool pageLive(uint32_t P) const { return Pages[P] != zeroPage(); }

  /// The one read-only all-Absent page every column's absent pages
  /// point at.
  static const CompactEntry *zeroPage() { return ZeroPage; }

  //===--------------------------------------------------------------------===
  // Red member set (singleton inlined, larger sets pooled)
  //===--------------------------------------------------------------------===

  uint32_t redCount(const CompactEntry &E) const {
    return E.PoolCount == 0 ? 1 : E.PoolCount;
  }

  ClassId redV(const CompactEntry &E, uint32_t I) const {
    if (E.PoolCount == 0) {
      assert(I == 0 && "inline red set is a singleton");
      return ClassId(E.InlineOrOffset);
    }
    assert(I < E.PoolCount && "red set index out of range");
    return redPool()[E.InlineOrOffset + I];
  }

  bool redContains(const CompactEntry &E, ClassId V) const {
    if (E.PoolCount == 0)
      return E.InlineOrOffset == V.rawValue();
    std::span<const ClassId> Pool = redPool();
    for (uint32_t I = 0; I != E.PoolCount; ++I)
      if (Pool[E.InlineOrOffset + I] == V)
        return true;
    return false;
  }

  /// Writes a red entry. \p SortedVs must be sorted by raw id and
  /// non-empty; a singleton is inlined, anything larger goes to the red
  /// pool.
  void setRed(CompactEntry &E, ClassId DefiningClass,
              std::span<const ClassId> SortedVs, ClassId RepresentativeV,
              ClassId Via, AccessSpec Access, bool StaticMerged) {
    assert(!SortedVs.empty() && "a red member set is never empty");
    assert(!Keepalive && "borrowed columns are immutable");
    E.DefiningClass = DefiningClass;
    E.RepresentativeV = RepresentativeV;
    E.Via = Via;
    E.KindAndFlags = static_cast<uint8_t>(
        static_cast<uint8_t>(EntryKind::Red) | (StaticMerged ? 4 : 0));
    E.AccessByte = static_cast<uint8_t>(Access);
    if (SortedVs.size() == 1) {
      E.InlineOrOffset = SortedVs.front().rawValue();
      E.PoolCount = 0;
      return;
    }
    E.InlineOrOffset = static_cast<uint32_t>(RedPool.size());
    E.PoolCount = static_cast<uint32_t>(SortedVs.size());
    RedPool.insert(RedPool.end(), SortedVs.begin(), SortedVs.end());
  }

  //===--------------------------------------------------------------------===
  // Blue set (always pooled)
  //===--------------------------------------------------------------------===

  std::span<const BlueElement> blues(const CompactEntry &E) const {
    assert(E.kind() == EntryKind::Blue && "blues of a non-blue entry");
    return bluePool().subspan(E.InlineOrOffset, E.PoolCount);
  }

  /// Writes a blue entry; \p SortedBlues must be sorted and unique.
  void setBlue(CompactEntry &E, std::span<const BlueElement> SortedBlues) {
    assert(!Keepalive && "borrowed columns are immutable");
    E.KindAndFlags = static_cast<uint8_t>(EntryKind::Blue);
    E.InlineOrOffset = static_cast<uint32_t>(BluePool.size());
    E.PoolCount = static_cast<uint32_t>(SortedBlues.size());
    BluePool.insert(BluePool.end(), SortedBlues.begin(), SortedBlues.end());
  }

  //===--------------------------------------------------------------------===
  // Raw storage access (snapshot persistence)
  //===--------------------------------------------------------------------===

  /// The serializer's view of the pools: the exact POD arrays, no
  /// interpretation (entries are read page by page through page()).
  /// Entries and pool elements have unique object representations
  /// (static_asserts above), so writing these bytes and reading them
  /// back reconstructs a value-equal column.
  std::span<const ClassId> rawRedPool() const { return redPool(); }
  std::span<const BlueElement> rawBluePool() const { return bluePool(); }

  /// Adopts a dense entry array and pools - a snapshot loader entry
  /// point, after it has bounds-checked and semantically validated every
  /// entry against the hierarchy (CompactColumn itself cannot: validity
  /// of offsets is checkable here, but Via links and kinds only make
  /// sense against the CHG, which a column does not hold). The entries
  /// are copied into pages; all-absent pages become the zero page.
  static CompactColumn fromRaw(std::span<const CompactEntry> Entries,
                               std::vector<ClassId> RedPool,
                               std::vector<BlueElement> BluePool) {
    CompactColumn Col;
    Col.reset(static_cast<uint32_t>(Entries.size()));
    for (uint32_t P = 0; P != Col.numPages(); ++P) {
      std::span<const CompactEntry> Rows = pageOf(Entries, P);
      if (!allAbsent(Rows))
        std::copy(Rows.begin(), Rows.end(), &Col.slot(P * PageRows));
    }
    Col.RedPool = std::move(RedPool);
    Col.BluePool = std::move(BluePool);
    Col.shrinkToFit();
    return Col;
  }

  /// Borrows pre-validated dense storage in place: the spans must point
  /// into memory that \p Keepalive pins for at least the column's
  /// lifetime (the snapshot loader passes slices of the snapshot's own
  /// byte buffer, so a warm start never copies the table). Each page
  /// points into \p Entries, or at the zero page when its rows are all
  /// Absent. The same validation obligations as fromRaw() apply, plus
  /// alignment: every span must be aligned for its element type - the
  /// snapshot format guarantees this by padding sections to 8 bytes, and
  /// the loader re-checks it at runtime before borrowing.
  static CompactColumn fromBorrowed(std::shared_ptr<const void> Keepalive,
                                    std::span<const CompactEntry> Entries,
                                    std::span<const ClassId> RedPool,
                                    std::span<const BlueElement> BluePool) {
    CompactColumn Col;
    Col.NumRows = static_cast<uint32_t>(Entries.size());
    Col.Pages.resize(pagesFor(Col.NumRows));
    for (uint32_t P = 0; P != Col.numPages(); ++P) {
      std::span<const CompactEntry> Rows = pageOf(Entries, P);
      Col.Pages[P] = allAbsent(Rows) ? zeroPage() : Rows.data();
    }
    Col.Keepalive = std::move(Keepalive);
    Col.BorrowedRed = RedPool;
    Col.BorrowedBlue = BluePool;
    return Col;
  }

  /// Whether this column borrows its storage from an external arena.
  bool borrowed() const { return Keepalive != nullptr; }

  //===--------------------------------------------------------------------===
  // Footprint, hashing, equality
  //===--------------------------------------------------------------------===

  /// Trims the live-page allocation and the pools to their size. Called
  /// once a column is finished so heapBytes() reports the exact
  /// long-lived footprint, not growth slack. No-op for borrowed columns.
  void shrinkToFit() {
    if (Keepalive)
      return;
    if (StorePages != LivePages.size())
      reallocateStore(LivePages.size());
    LivePages.shrink_to_fit();
    RedPool.shrink_to_fit();
    BluePool.shrink_to_fit();
  }

  /// Exact heap footprint of this column: the page table plus owned
  /// capacities (capacity is what the allocator actually holds), or the
  /// borrowed slices' bytes - the column's share of its arena. Shares of
  /// one arena never overlap, so summing heapBytes() over a loaded table
  /// counts each arena byte at most once (arena slack, e.g. section
  /// padding, is not billed to any column).
  uint64_t heapBytes() const {
    uint64_t Bytes = uint64_t(Pages.capacity()) * sizeof(Pages[0]);
    if (Keepalive)
      return Bytes + uint64_t(NumRows) * sizeof(CompactEntry) +
             uint64_t(BorrowedRed.size_bytes()) +
             uint64_t(BorrowedBlue.size_bytes());
    return Bytes + uint64_t(StorePages) * PageRows * sizeof(CompactEntry) +
           uint64_t(LivePages.capacity()) * sizeof(uint32_t) +
           uint64_t(RedPool.capacity()) * sizeof(ClassId) +
           uint64_t(BluePool.capacity()) * sizeof(BlueElement);
  }

  /// Pool occupancy, for table statistics: how often the inline
  /// fast path sufficed versus spilling to a pool.
  struct PoolStats {
    uint64_t InlineRedEntries = 0;   ///< red entries with the V inlined
    uint64_t OverflowRedEntries = 0; ///< red entries spilled to the pool
    uint64_t RedPoolElements = 0;
    uint64_t BlueEntries = 0;
    uint64_t BluePoolElements = 0;

    PoolStats &operator+=(const PoolStats &O) {
      InlineRedEntries += O.InlineRedEntries;
      OverflowRedEntries += O.OverflowRedEntries;
      RedPoolElements += O.RedPoolElements;
      BlueEntries += O.BlueEntries;
      BluePoolElements += O.BluePoolElements;
      return *this;
    }
  };

  PoolStats poolStats() const {
    PoolStats S;
    for (uint32_t P = 0; P != numPages(); ++P) {
      if (!pageLive(P))
        continue;
      for (const CompactEntry &E : page(P)) {
        if (E.kind() == EntryKind::Red)
          ++(E.PoolCount == 0 ? S.InlineRedEntries : S.OverflowRedEntries);
        else if (E.kind() == EntryKind::Blue)
          ++S.BlueEntries;
      }
    }
    S.RedPoolElements = redPool().size();
    S.BluePoolElements = bluePool().size();
    return S;
  }

  /// FNV-1a folded eight bytes at a time over the row count, each live
  /// page's index and rows, and both pools. Zero pages cost nothing, so
  /// hashing a forest column reads only the pages its member reaches.
  /// Sound as a structural hash because entries and pool elements have
  /// unique object representations (static_asserts above) and the
  /// kernel writes columns deterministically, so value-equal columns
  /// have the same live pages with the same bytes. The hash is an
  /// in-process dedup key, not a wire value - structural dedup
  /// byte-compares columns before aliasing them, and the snapshot
  /// format stores its own hash of the dense column.
  uint64_t structuralHash() const {
    uint64_t Hsh = 0xcbf29ce484222325ULL;
    auto MixWord = [&Hsh](uint64_t Word) {
      Hsh = (Hsh ^ Word) * 0x100000001b3ULL;
    };
    auto Mix = [&](const void *Data, size_t Bytes) {
      const auto *Ptr = static_cast<const unsigned char *>(Data);
      size_t I = 0;
      for (; I + 8 <= Bytes; I += 8) {
        uint64_t Word;
        std::memcpy(&Word, Ptr + I, 8);
        MixWord(Word);
      }
      for (; I != Bytes; ++I)
        MixWord(Ptr[I]);
    };
    MixWord(NumRows);
    for (uint32_t P = 0; P != numPages(); ++P) {
      if (!pageLive(P))
        continue;
      MixWord(P);
      std::span<const CompactEntry> Rows = page(P);
      Mix(Rows.data(), Rows.size_bytes());
    }
    std::span<const ClassId> Rs = redPool();
    std::span<const BlueElement> Bs = bluePool();
    Mix(Rs.data(), Rs.size_bytes());
    Mix(Bs.data(), Bs.size_bytes());
    return Hsh;
  }

  friend bool operator==(const CompactColumn &A, const CompactColumn &B) {
    auto BytesEqual = [](const auto &X, const auto &Y) {
      return X.size() == Y.size() &&
             (X.empty() ||
              std::memcmp(X.data(), Y.data(), X.size_bytes()) == 0);
    };
    if (A.NumRows != B.NumRows)
      return false;
    for (uint32_t P = 0; P != A.numPages(); ++P)
      if (A.Pages[P] != B.Pages[P] && !BytesEqual(A.page(P), B.page(P)))
        return false;
    return BytesEqual(A.redPool(), B.redPool()) &&
           BytesEqual(A.bluePool(), B.bluePool());
  }

private:
  static constexpr CompactEntry ZeroPage[PageRows] = {};

  static size_t pagesFor(uint32_t Rows) {
    return (size_t(Rows) + PageRows - 1) / PageRows;
  }

  /// Page \p P's slice of a dense entry array.
  static std::span<const CompactEntry>
  pageOf(std::span<const CompactEntry> Entries, uint32_t P) {
    size_t First = size_t(P) * PageRows;
    return Entries.subspan(First,
                           std::min<size_t>(PageRows, Entries.size() - First));
  }

  static bool allAbsent(std::span<const CompactEntry> Rows) {
    return std::memcmp(Rows.data(), ZeroPage, Rows.size_bytes()) == 0;
  }

  /// Resizes the live-page allocation to \p NumPages pages (at least
  /// the live ones) and re-points the page table at it. realloc shrinks
  /// in place, so trimming a finished column copies nothing; entries are
  /// trivially copyable, so moving them bytewise is sound.
  void reallocateStore(size_t NumPages) {
    assert(!Keepalive && "borrowed columns are immutable");
    assert(NumPages >= LivePages.size() && "dropping live pages");
    if (NumPages == 0) {
      Store.reset();
    } else {
      void *Raw = std::realloc(Store.get(),
                               NumPages * PageRows * sizeof(CompactEntry));
      if (!Raw)
        throw std::bad_alloc();
      (void)Store.release(); // realloc took ownership of the old block
      Store.reset(static_cast<CompactEntry *>(Raw));
    }
    StorePages = NumPages;
    for (size_t Slot = 0; Slot != LivePages.size(); ++Slot)
      Pages[LivePages[Slot]] = Store.get() + Slot * PageRows;
  }

  struct FreeStore {
    void operator()(CompactEntry *Block) const { std::free(Block); }
  };

  // Pool read accessors resolve the storage mode once; everything public
  // reads through these, so owned and borrowed columns are
  // indistinguishable to readers.
  std::span<const ClassId> redPool() const {
    return Keepalive ? BorrowedRed : std::span<const ClassId>(RedPool);
  }
  std::span<const BlueElement> bluePool() const {
    return Keepalive ? BorrowedBlue : std::span<const BlueElement>(BluePool);
  }

  uint32_t NumRows = 0;
  /// One pointer per page: into Store (owned), into the arena
  /// (borrowed), or the zero page.
  std::vector<const CompactEntry *> Pages;
  // Owned storage (empty in borrowed mode): one malloc'd block of
  // StorePages pages whose first LivePages.size() slots hold the live
  // pages, in the order they went live; slot K holds page LivePages[K].
  std::unique_ptr<CompactEntry[], FreeStore> Store;
  size_t StorePages = 0;
  std::vector<uint32_t> LivePages;
  std::vector<ClassId> RedPool;
  std::vector<BlueElement> BluePool;
  // Borrowed storage: non-null Keepalive is what "borrowed mode" means;
  // it pins the arena the page pointers and pool views alias, so moves
  // and copies keep them valid.
  std::shared_ptr<const void> Keepalive;
  std::span<const ClassId> BorrowedRed;
  std::span<const BlueElement> BorrowedBlue;
};

} // namespace memlook

#endif // MEMLOOK_CORE_COMPACTCOLUMN_H
