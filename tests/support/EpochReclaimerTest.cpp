//===- EpochReclaimerTest.cpp - EBR domain unit tests ---------------------===//
//
// Unit tests for support/EpochReclaimer.h: slot registration and reuse
// across thread lifetimes, guard nesting, the retire/reclaim ordering
// rule (free an object tagged T only once every pinned slot has advanced
// to >= T), the overflow fallback, and the destructor drain.  Retired
// payloads carry flag-setting deleters so the tests observe the exact
// moment the limbo reference drops.
//
//===----------------------------------------------------------------------===//

#include "memlook/support/EpochReclaimer.h"

#include "gtest/gtest.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

using memlook::EpochReclaimer;

namespace {

/// A retired payload whose destruction is observable: appends its label
/// to Order (guarded by the single-writer discipline of the tests that
/// use it) and bumps Freed.
struct Tracked {
  Tracked(std::vector<int> &Order, std::atomic<int> &Freed, int Label)
      : Order(Order), Freed(Freed), Label(Label) {}
  ~Tracked() {
    Order.push_back(Label);
    Freed.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<int> &Order;
  std::atomic<int> &Freed;
  int Label;
};

std::shared_ptr<const void> track(std::vector<int> &Order,
                                  std::atomic<int> &Freed, int Label) {
  return std::static_pointer_cast<const void>(
      std::make_shared<Tracked>(Order, Freed, Label));
}

TEST(EpochReclaimerTest, RetireWithNoReadersFreesImmediately) {
  EpochReclaimer R;
  std::vector<int> Order;
  std::atomic<int> Freed{0};

  R.retire(track(Order, Freed, 1));
  EXPECT_EQ(Freed.load(), 1);
  EXPECT_EQ(R.limboDepth(), 0u);
  EXPECT_EQ(R.retiredTotal(), 1u);
  EXPECT_EQ(R.reclaimedTotal(), 1u);
  EXPECT_EQ(R.epoch(), 1u);
}

TEST(EpochReclaimerTest, PinnedReaderBlocksNewerRetiresOnly) {
  EpochReclaimer R;
  std::vector<int> Order;
  std::atomic<int> Freed{0};

  // Pin at epoch 0, then retire A (tag 1) and B (tag 2): both newer than
  // the pin, so both must wait.
  {
    EpochReclaimer::ReadGuard G(R);
    EXPECT_EQ(R.activeReaders(), 1u);
    R.retire(track(Order, Freed, 1));
    R.retire(track(Order, Freed, 2));
    EXPECT_EQ(Freed.load(), 0);
    EXPECT_EQ(R.limboDepth(), 2u);
  }
  // Quiescent: the next reclaim frees both, in retire (FIFO) order.
  EXPECT_EQ(R.reclaim(), 2u);
  EXPECT_EQ(Freed.load(), 2);
  ASSERT_EQ(Order.size(), 2u);
  EXPECT_EQ(Order[0], 1);
  EXPECT_EQ(Order[1], 2);
  EXPECT_EQ(R.limboDepth(), 0u);
}

TEST(EpochReclaimerTest, ReaderPinnedAfterRetireDoesNotBlockIt) {
  EpochReclaimer R;
  std::vector<int> Order;
  std::atomic<int> Freed{0};

  // Retire A while an old guard is pinned at epoch 0; release it, then
  // pin a fresh guard (epoch now 1, the post-A world) and retire B.  The
  // fresh pin proves its reader cannot hold A, so A frees even though a
  // reader is active; B (tag 2 > pin 1) must wait for it.
  {
    EpochReclaimer::ReadGuard Old(R);
    R.retire(track(Order, Freed, 1));
    EXPECT_EQ(Freed.load(), 0);
  }
  {
    EpochReclaimer::ReadGuard Fresh(R);
    R.retire(track(Order, Freed, 2));
    EXPECT_EQ(Freed.load(), 1);
    ASSERT_EQ(Order.size(), 1u);
    EXPECT_EQ(Order[0], 1);
    EXPECT_EQ(R.limboDepth(), 1u);
  }
  EXPECT_EQ(R.reclaim(), 1u);
  EXPECT_EQ(Freed.load(), 2);
}

TEST(EpochReclaimerTest, NestedGuardsShareOnePinUntilTheOuterReleases) {
  EpochReclaimer R;
  std::vector<int> Order;
  std::atomic<int> Freed{0};

  {
    EpochReclaimer::ReadGuard Outer(R);
    R.retire(track(Order, Freed, 1));
    {
      EpochReclaimer::ReadGuard Inner(R);
      // One slot, one pin: nesting does not add readers.
      EXPECT_EQ(R.activeReaders(), 1u);
    }
    // The inner release must not unpin the outer guard.
    EXPECT_EQ(R.activeReaders(), 1u);
    EXPECT_EQ(R.reclaim(), 0u);
    EXPECT_EQ(Freed.load(), 0);
  }
  EXPECT_EQ(R.reclaim(), 1u);
  EXPECT_EQ(Freed.load(), 1);
}

TEST(EpochReclaimerTest, SlotsRecycleAcrossSequentialThreadLifetimes) {
  EpochReclaimer R;
  // Far more thread lifetimes than slots: each thread registers, pins
  // once, and exits (releasing its slot).  If slots failed to recycle
  // the later threads would overflow.
  for (int I = 0; I < int(EpochReclaimer::NumSlots) * 3; ++I) {
    std::thread T([&R] {
      EpochReclaimer::ReadGuard G(R);
      EXPECT_FALSE(G.overflowed());
    });
    T.join();
  }
  EXPECT_EQ(R.overflowTotal(), 0u);
  // Every slot was released at thread exit (the main thread never
  // registered in this test).
  EXPECT_EQ(R.ownedSlots(), 0u);
  EXPECT_EQ(R.activeReaders(), 0u);
}

TEST(EpochReclaimerTest, OneThreadReusesOneSlotAcrossManyGuards) {
  EpochReclaimer R;
  for (int I = 0; I < 1000; ++I)
    EpochReclaimer::ReadGuard G(R);
  EXPECT_EQ(R.ownedSlots(), 1u);
  EXPECT_EQ(R.overflowTotal(), 0u);
}

TEST(EpochReclaimerTest, OverflowPinsBlockAllReclamationWhileHeld) {
  EpochReclaimer R;
  std::vector<int> Order;
  std::atomic<int> Freed{0};

  // Saturate every slot from NumSlots parked threads, then push a few
  // more readers over the edge: they must take the overflow fallback and
  // still pin correctly (nothing reclaims while they are live).
  constexpr size_t Extra = 4;
  constexpr size_t Total = EpochReclaimer::NumSlots + Extra;
  std::atomic<size_t> Pinned{0};
  std::atomic<bool> Release{false};
  std::atomic<size_t> Overflowed{0};
  std::vector<std::thread> Threads;
  Threads.reserve(Total);
  for (size_t I = 0; I < Total; ++I)
    Threads.emplace_back([&] {
      EpochReclaimer::ReadGuard G(R);
      if (G.overflowed())
        Overflowed.fetch_add(1);
      Pinned.fetch_add(1);
      while (!Release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
  while (Pinned.load() != Total)
    std::this_thread::yield();

  EXPECT_EQ(Overflowed.load(), Extra);
  EXPECT_EQ(R.overflowTotal(), Extra);
  R.retire(track(Order, Freed, 1));
  EXPECT_EQ(Freed.load(), 0);
  EXPECT_EQ(R.limboDepth(), 1u);

  Release.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(R.reclaim(), 1u);
  EXPECT_EQ(Freed.load(), 1);
}

TEST(EpochReclaimerTest, DestructorDrainsTheLimboListEvenWithLiveGuards) {
  std::vector<int> Order;
  std::atomic<int> Freed{0};
  std::atomic<bool> Release{false};
  std::atomic<bool> Pinned{false};

  // An external shared_ptr keeps the payload itself valid past the
  // drain, mirroring how LookupService's snapshot() holders interact
  // with reclamation; the drain drops only the limbo reference.
  std::shared_ptr<const void> External;
  std::thread Reader;
  {
    EpochReclaimer R;
    auto Obj = std::make_shared<Tracked>(Order, Freed, 1);
    External = std::static_pointer_cast<const void>(Obj);
    Reader = std::thread([&R, &Release, &Pinned] {
      EpochReclaimer::ReadGuard G(R);
      Pinned.store(true, std::memory_order_release);
      while (!Release.load(std::memory_order_acquire))
        std::this_thread::yield();
    });
    while (!Pinned.load(std::memory_order_acquire))
      std::this_thread::yield();

    R.retire(std::static_pointer_cast<const void>(std::move(Obj)));
    EXPECT_EQ(R.limboDepth(), 1u);
    EXPECT_EQ(R.reclaim(), 0u); // the pinned reader blocks reclaim
    // Destroying the reclaimer now must drain the limbo list anyway:
    // a stuck reader delays reclamation, never teardown.
  }
  EXPECT_EQ(Freed.load(), 0); // External still holds the payload
  External.reset();
  EXPECT_EQ(Freed.load(), 1);

  Release.store(true, std::memory_order_release);
  Reader.join();
}

TEST(EpochReclaimerTest, OneThreadServesTwoReclaimersIndependently) {
  // Declared before the reclaimers so they outlive them: ~EpochReclaimer
  // frees A's limbo entry, whose destructor records into these.
  std::vector<int> Order;
  std::atomic<int> Freed{0};
  EpochReclaimer A;
  EpochReclaimer B;

  // Register this thread with both domains (a transient pin on B), then
  // hold a pin on A only: it must not block B's reclamation.
  { EpochReclaimer::ReadGuard GB(B); }
  EpochReclaimer::ReadGuard G(A);
  B.retire(track(Order, Freed, 1));
  EXPECT_EQ(Freed.load(), 1);
  A.retire(track(Order, Freed, 2));
  EXPECT_EQ(Freed.load(), 1);
  EXPECT_EQ(A.limboDepth(), 1u);
  EXPECT_EQ(A.ownedSlots(), 1u);
  EXPECT_EQ(B.ownedSlots(), 1u);
}

TEST(EpochReclaimerTest, ConcurrentReadersNeverSeeAFreedPointer) {
  // A miniature of the service's publish loop: a writer publishes
  // integers through an atomic pointer and retires the predecessors; 4
  // guard-pinned readers dereference the published pointer and check the
  // invariant value.  ASan/TSan turn a reclamation bug into a hard
  // failure here; the value check catches silent reuse.
  EpochReclaimer R;
  struct Boxed {
    explicit Boxed(uint64_t V) : Value(V) {}
    uint64_t Value;
  };
  std::atomic<const Boxed *> Published{nullptr};

  auto First = std::make_shared<const Boxed>(0x1234567812345678ULL);
  Published.store(First.get(), EpochReclaimer::pointerOrder());
  std::shared_ptr<const Boxed> Keep = First; // writer-owned current

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Reads{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T < 4; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        EpochReclaimer::ReadGuard G(R);
        const Boxed *P = Published.load(EpochReclaimer::pointerOrder());
        EXPECT_EQ(P->Value, 0x1234567812345678ULL);
        Reads.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (int I = 0; I < 2000; ++I) {
    auto Next = std::make_shared<const Boxed>(0x1234567812345678ULL);
    Published.store(Next.get(), EpochReclaimer::pointerOrder());
    std::shared_ptr<const Boxed> Old = std::move(Keep);
    Keep = std::move(Next);
    R.retire(std::static_pointer_cast<const void>(std::move(Old)));
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(R.retiredTotal(), 2000u);
  // All readers quiesced: everything retired must now be reclaimable.
  R.reclaim();
  EXPECT_EQ(R.limboDepth(), 0u);
  EXPECT_EQ(R.reclaimedTotal(), 2000u);
}

} // namespace
