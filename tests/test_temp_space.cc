#include "storage/temp_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "storage/database.h"

namespace rtq::storage {
namespace {

Database MakeDb(int32_t disks, Rng* rng) {
  DatabaseSpec spec;
  spec.num_disks = disks;
  RelationGroupSpec g;
  g.rel_per_disk = 2;
  g.min_pages = 1000;
  g.max_pages = 2000;
  spec.groups = {g};
  auto db = Database::Create(spec, model::DiskParams(), rng);
  return std::move(db).value();
}

TEST(TempSpace, ArenasExcludeRelationBand) {
  Rng rng(1);
  model::DiskParams disk;
  Database db = MakeDb(1, &rng);
  TempSpace temp(db, disk);
  PageCount band = db.relation_area_end(0) - db.relation_area_begin(0);
  EXPECT_EQ(temp.free_pages(0), disk.capacity() - band);
}

TEST(TempSpace, AllocationsPreferDiskAndAvoidBand) {
  Rng rng(2);
  model::DiskParams disk;
  Database db = MakeDb(2, &rng);
  TempSpace temp(db, disk);
  auto file = temp.Allocate(500, /*preferred=*/1);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value().disk, 1);
  // The extent must not overlap the relation band.
  PageCount begin = db.relation_area_begin(1);
  PageCount end = db.relation_area_end(1);
  bool before = file.value().start_page + file.value().pages <= begin;
  bool after = file.value().start_page >= end;
  EXPECT_TRUE(before || after);
}

TEST(TempSpace, PlacementHugsTheRelationBand) {
  Rng rng(3);
  model::DiskParams disk;
  Database db = MakeDb(1, &rng);
  TempSpace temp(db, disk);
  auto file = temp.Allocate(100, 0);
  ASSERT_TRUE(file.ok());
  // The extent should touch one edge of the relation band, not sit at the
  // far end of the disk (seek-locality optimisation).
  PageCount begin = db.relation_area_begin(0);
  PageCount end = db.relation_area_end(0);
  bool hugs_outer = file.value().start_page + file.value().pages == begin;
  bool hugs_inner = file.value().start_page == end;
  EXPECT_TRUE(hugs_outer || hugs_inner);
}

TEST(TempSpace, FreeReturnsPagesAndCoalesces) {
  Rng rng(4);
  model::DiskParams disk;
  Database db = MakeDb(1, &rng);
  TempSpace temp(db, disk);
  PageCount before = temp.free_pages(0);
  auto a = temp.Allocate(300, 0);
  auto b = temp.Allocate(300, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(temp.free_pages(0), before - 600);
  EXPECT_EQ(temp.live_allocations(), 2);
  temp.Free(a.value());
  temp.Free(b.value());
  EXPECT_EQ(temp.free_pages(0), before);
  EXPECT_EQ(temp.live_allocations(), 0);
  // After coalescing, a large allocation using the whole arena side works.
  auto big = temp.Allocate(before / 2, 0);
  EXPECT_TRUE(big.ok());
}

TEST(TempSpace, FallsBackToOtherDisks) {
  Rng rng(5);
  model::DiskParams disk;
  Database db = MakeDb(3, &rng);
  TempSpace temp(db, disk);
  // Exhaust disk 0's two arenas (each allocation must fit in one hole).
  while (temp.free_pages(0) >= 600) {
    ASSERT_TRUE(temp.Allocate(500, 0).ok());
  }
  auto spill = temp.Allocate(600, 0);
  ASSERT_TRUE(spill.ok());
  EXPECT_NE(spill.value().disk, 0);
}

TEST(TempSpace, FailsWhenEverythingIsFull) {
  Rng rng(6);
  model::DiskParams disk;
  Database db = MakeDb(1, &rng);
  TempSpace temp(db, disk);
  while (temp.free_pages(0) >= 600) {
    ASSERT_TRUE(temp.Allocate(500, 0).ok());
  }
  auto fail = temp.Allocate(600, 0);
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kOutOfRange);
}

TEST(TempSpace, ManyAllocationsStayDisjoint) {
  Rng rng(7);
  model::DiskParams disk;
  Database db = MakeDb(2, &rng);
  TempSpace temp(db, disk);
  std::vector<TempFile> files;
  for (int i = 0; i < 50; ++i) {
    auto f = temp.Allocate(100 + i, i % 2);
    ASSERT_TRUE(f.ok());
    files.push_back(f.value());
  }
  for (size_t i = 0; i < files.size(); ++i) {
    for (size_t j = i + 1; j < files.size(); ++j) {
      if (files[i].disk != files[j].disk) continue;
      bool disjoint =
          files[i].start_page + files[i].pages <= files[j].start_page ||
          files[j].start_page + files[j].pages <= files[i].start_page;
      EXPECT_TRUE(disjoint) << "extents " << i << " and " << j << " overlap";
    }
  }
  for (const TempFile& f : files) temp.Free(f);
  EXPECT_EQ(temp.live_allocations(), 0);
}

TEST(TempSpace, TotalFreeAcrossDisks) {
  Rng rng(8);
  model::DiskParams disk;
  Database db = MakeDb(2, &rng);
  TempSpace temp(db, disk);
  PageCount total = temp.total_free_pages();
  EXPECT_EQ(total, temp.free_pages(0) + temp.free_pages(1));
  auto f = temp.Allocate(1000, 0);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(temp.total_free_pages(), total - 1000);
}

TEST(TempSpace, RandomAllocateAndFreeKeepsExtentsAndCountsExact) {
  model::DiskParams disk;
  for (uint64_t seed : {11, 12, 13}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    constexpr int32_t kDisks = 2;
    Database db = MakeDb(kDisks, &rng);
    TempSpace temp(db, disk);
    std::vector<PageCount> arena_total(kDisks);
    for (DiskId d = 0; d < kDisks; ++d) {
      arena_total[d] = db.relation_area_begin(d) + disk.capacity() -
                       db.relation_area_end(d);
      ASSERT_EQ(temp.free_pages(d), arena_total[d]);
    }

    std::vector<TempFile> live;
    for (int step = 0; step < 2000; ++step) {
      if (live.empty() || rng.NextDouble() < 0.55) {
        // Half the requests are a few pages, so holes left between live
        // extents get reused with a page or two to spare.
        const PageCount pages = rng.NextDouble() < 0.5
                                    ? rng.UniformInt(1, 4)
                                    : rng.UniformInt(1, 20000);
        const DiskId preferred = static_cast<DiskId>(rng.UniformInt(-1, 1));
        auto file = temp.Allocate(pages, preferred);
        if (!file.ok()) {
          EXPECT_EQ(file.status().code(), StatusCode::kOutOfRange);
          continue;
        }
        const TempFile& f = file.value();
        ASSERT_EQ(f.pages, pages);
        ASSERT_TRUE(f.start_page + f.pages <= db.relation_area_begin(f.disk) ||
                    f.start_page >= db.relation_area_end(f.disk))
            << "step " << step << ": extent inside the relation band";
        ASSERT_LE(f.start_page + f.pages, disk.capacity());
        for (const TempFile& o : live) {
          ASSERT_TRUE(o.disk != f.disk ||
                      o.start_page + o.pages <= f.start_page ||
                      f.start_page + f.pages <= o.start_page)
              << "step " << step << ": extent overlaps a live one";
        }
        live.push_back(f);
      } else {
        const size_t victim =
            static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
        temp.Free(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      for (DiskId d = 0; d < kDisks; ++d) {
        PageCount held = 0;
        for (const TempFile& f : live) held += f.disk == d ? f.pages : 0;
        ASSERT_EQ(temp.free_pages(d), arena_total[d] - held)
            << "step " << step << " disk " << d;
      }
      ASSERT_EQ(temp.live_allocations(), static_cast<int64_t>(live.size()));
    }

    // Freed in random order, the holes coalesce back into the two
    // initial arenas: each fits in a single allocation again, the
    // larger one first.
    while (!live.empty()) {
      const size_t victim =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      temp.Free(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    for (DiskId d = 0; d < kDisks; ++d) {
      ASSERT_EQ(temp.free_pages(d), arena_total[d]);
      const PageCount outer = db.relation_area_begin(d);
      const PageCount inner = disk.capacity() - db.relation_area_end(d);
      for (PageCount pages : {std::max(outer, inner), std::min(outer, inner)}) {
        auto whole = temp.Allocate(pages, d);
        ASSERT_TRUE(whole.ok()) << "disk " << d << ", " << pages << " pages";
        EXPECT_EQ(whole.value().disk, d);
      }
      EXPECT_EQ(temp.free_pages(d), 0);
    }
  }
}

TEST(TempSpace, DoubleFreeDies) {
  Rng rng(9);
  model::DiskParams disk;
  Database db = MakeDb(1, &rng);
  TempSpace temp(db, disk);
  auto a = temp.Allocate(300, 0);
  ASSERT_TRUE(a.ok());
  temp.Free(a.value());
  // The extent has coalesced back into its arena's hole by now.
  EXPECT_DEATH(temp.Free(a.value()), "double free");
}

}  // namespace
}  // namespace rtq::storage
