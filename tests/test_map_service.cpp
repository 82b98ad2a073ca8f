// Integration tests for the sharded map service.
//
// The load-bearing contract is determinism: tracks crossing tile
// boundaries are split at boundary cell indices (a pure function of the
// road's fusion grid), each shard applies its work in upload order, and
// the published multi-shard map is therefore bit-identical to single-shard
// serial fusion across 1/2/8-thread pools and 1/4/16 shards. On top of
// that: epoch/double-buffered snapshots (readers keep a pinned immutable
// buffer while ingest continues), exact rebalancing, per-shard matcher
// caches, and the concurrency of ingest_one/publish/snapshot (exercised
// under TSan via the tsan-runtime preset).
#include "service/map_service.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/track_fusion.hpp"
#include "math/angles.hpp"
#include "road/network.hpp"
#include "road/road.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::service {
namespace {

/// Deterministic synthetic upload covering s in [s0, s1] of one road.
TrackUpload synth_upload(RoadId road_id, const road::Road& road,
                         std::uint32_t id, double s0, double s1,
                         std::size_t n) {
  TrackUpload up;
  up.road = road_id;
  up.track.source = "synth-" + std::to_string(id);
  std::mt19937 rng(2024u + id);
  std::uniform_real_distribution<double> var(1e-5, 4e-5);
  up.track.t.resize(n);
  up.track.s.resize(n);
  up.track.grade.resize(n);
  up.track.grade_var.resize(n);
  up.track.speed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    const double s = s0 + f * (s1 - s0);
    up.track.s[i] = s;
    up.track.t[i] = s / 13.0;
    up.track.grade[i] = road.grade_at(s) + 0.002 * std::sin(0.05 * s + id);
    up.track.grade_var[i] = var(rng);
    up.track.speed[i] = 13.0;
  }
  up.track.validate();
  return up;
}

/// Random partial-trip fleet over every road of the network.
std::vector<TrackUpload> synth_fleet(const road::RoadNetwork& net,
                                     std::size_t n_uploads,
                                     std::uint32_t seed) {
  std::vector<TrackUpload> fleet;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, net.size() - 1);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t v = 0; v < n_uploads; ++v) {
    const auto r = static_cast<RoadId>(pick(rng));
    const road::Road& road = net.roads()[r].road;
    const double len = road.length_m();
    const double s0 = u(rng) * std::max(0.0, len - 150.0);
    const double s1 = std::min(len, s0 + 150.0 + u(rng) * (len - s0 - 150.0));
    const auto n = std::max<std::size_t>(
        32, static_cast<std::size_t>((s1 - s0) / 4.0));
    fleet.push_back(synth_upload(r, road, static_cast<std::uint32_t>(v), s0,
                                 s1, n));
  }
  return fleet;
}

void expect_views_identical(const RoadView& a, const RoadView& b) {
  ASSERT_EQ(a.road, b.road);
  ASSERT_EQ(a.cells, b.cells) << "road " << a.road;
  ASSERT_EQ(a.coverage, b.coverage) << "road " << a.road;
  ASSERT_EQ(a.track.grade, b.track.grade) << "road " << a.road;
  ASSERT_EQ(a.track.grade_var, b.track.grade_var) << "road " << a.road;
  ASSERT_EQ(a.track.speed, b.track.speed) << "road " << a.road;
  ASSERT_EQ(a.track.t, b.track.t) << "road " << a.road;
  ASSERT_EQ(a.track.s, b.track.s) << "road " << a.road;
}

void expect_snapshots_identical(const ServiceSnapshot& a,
                                const ServiceSnapshot& b) {
  ASSERT_EQ(a.roads.size(), b.roads.size());
  for (std::size_t r = 0; r < a.roads.size(); ++r) {
    expect_views_identical(a.roads[r], b.roads[r]);
  }
}

road::RoadNetwork small_city() {
  return road::make_city_network(77, /*total_length_km=*/12.0);
}

MapServiceConfig base_config(std::size_t n_shards) {
  MapServiceConfig cfg;
  cfg.n_shards = n_shards;
  cfg.tile_length_m = 500.0;  // several tiles per road on the small city
  cfg.fusion.distance_step_m = 5.0;
  return cfg;
}

// ---- tiling -------------------------------------------------------------

TEST(MapService, TilePartitionCoversEveryCellExactlyOnce) {
  const MapService svc(small_city(), base_config(4));
  std::size_t tiles_total = 0;
  for (RoadId r = 0; r < svc.n_roads(); ++r) {
    const std::size_t tiles = svc.tiles_of(r);
    tiles_total += tiles;
    ASSERT_GE(tiles, 1u);
    // Tile t owns cells [t*cpt, (t+1)*cpt): with cpt constant per road,
    // the union is [0, grid.n) and the pieces are disjoint by
    // construction; spot-check that the count adds up and the
    // shard assignment is stable and in range.
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t s = svc.shard_of_tile(r, t);
      EXPECT_LT(s, svc.n_shards());
      EXPECT_EQ(s, svc.shard_of_tile(r, t));
    }
    // Roads longer than one tile really do split.
    if (svc.road(r).length_m() > 2.0 * svc.config().tile_length_m) {
      EXPECT_GE(tiles, 2u) << "road " << r;
    }
  }
  EXPECT_EQ(tiles_total, svc.n_tiles());
}

// ---- determinism matrix -------------------------------------------------

TEST(MapService, BitIdenticalAcrossPoolSizesAndShardCounts) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 120, 9);

  // Reference: one shard, one thread, one batch — plain serial fusion.
  MapService ref(net, base_config(1));
  ref.ingest(fleet);
  ref.publish();
  const auto want = ref.snapshot();
  ASSERT_GT(want->epoch, 0u);

  for (const std::size_t n_shards : {1u, 4u, 16u}) {
    std::vector<ShardStats> first_stats;
    for (const std::size_t n_threads : {1u, 2u, 8u}) {
      runtime::ThreadPool pool(n_threads);
      MapService svc(net, base_config(n_shards));
      // Batched ingest through the pool, publishing mid-stream too.
      const std::size_t batch = 37;
      for (std::size_t i = 0; i < fleet.size(); i += batch) {
        const std::vector<TrackUpload> chunk(
            fleet.begin() + static_cast<std::ptrdiff_t>(i),
            fleet.begin() + static_cast<std::ptrdiff_t>(
                                std::min(fleet.size(), i + batch)));
        svc.ingest(chunk, &pool);
      }
      svc.publish(&pool);
      expect_snapshots_identical(*svc.snapshot(), *want);

      // Per-shard sums are a function of the tiling only — identical for
      // every pool size at a fixed shard count.
      const auto stats = svc.shard_stats();
      ASSERT_EQ(stats.size(), n_shards);
      if (n_threads == 1u) {
        first_stats = stats;
      } else {
        for (std::size_t s = 0; s < n_shards; ++s) {
          EXPECT_EQ(stats[s].tracks_ingested,
                    first_stats[s].tracks_ingested)
              << "shard " << s;
          EXPECT_EQ(stats[s].samples_ingested,
                    first_stats[s].samples_ingested)
              << "shard " << s;
          EXPECT_EQ(stats[s].covered_cells, first_stats[s].covered_cells)
              << "shard " << s;
        }
      }
    }
  }
}

TEST(MapService, BoundarySplitMatchesUnshardedAccumulator) {
  // One long road, tiles much shorter than the track: the upload crosses
  // many tile boundaries and lands on many shards, yet every covered
  // cell must hold exactly what one unsplit add_track writes.
  road::RoadBuilder b("split-road");
  b.add_straight(1500.0, math::deg2rad(1.5));
  b.add_straight(1500.0, math::deg2rad(-2.0));
  road::RoadNetwork net;
  net.add(road::NetworkRoad{b.build(), road::RoadClass::kArterial});

  MapServiceConfig cfg = base_config(8);
  cfg.tile_length_m = 200.0;  // ~15 tiles over 3 km
  MapService svc(net, cfg);
  ASSERT_GE(svc.tiles_of(0), 10u);

  const auto up =
      synth_upload(0, net.roads()[0].road, 5, 130.0, 2870.0, 900);
  svc.ingest({up});

  core::FusionAccumulator direct(svc.grid(0), cfg.fusion);
  direct.add_track(up.track);
  const auto want = direct.snapshot_covered();
  const auto got = svc.merged_accumulator(0).snapshot_covered();
  ASSERT_EQ(got.cells, want.cells);
  ASSERT_EQ(got.coverage, want.coverage);  // 1 everywhere: no double adds
  EXPECT_EQ(got.track.grade, want.track.grade);
  EXPECT_EQ(got.track.grade_var, want.track.grade_var);
  EXPECT_EQ(got.track.speed, want.track.speed);
  EXPECT_EQ(got.track.t, want.track.t);
  EXPECT_EQ(got.track.s, want.track.s);

  const auto view = svc.merged_road_view(0);
  EXPECT_EQ(view.cells, want.cells);
  EXPECT_EQ(view.track.grade, want.track.grade);

  // publish() against the same oracle, which never calls publish(): eight
  // shards merge the road from many pieces, one shard serves it as a
  // single piece; each with and without a pool.
  MapServiceConfig one_cfg = cfg;
  one_cfg.n_shards = 1;
  MapService one(net, one_cfg);
  one.ingest({up});
  runtime::ThreadPool pool(4);
  for (MapService* service : {&svc, &one}) {
    for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                   &pool}) {
      service->publish(p);
      const RoadView& served = service->snapshot()->roads[0];
      const std::string what = std::to_string(service->n_shards()) +
                               " shards, pool " + (p ? "on" : "off");
      EXPECT_EQ(served.road, 0u) << what;
      EXPECT_EQ(served.cells, want.cells) << what;
      EXPECT_EQ(served.coverage, want.coverage) << what;
      EXPECT_EQ(served.track.t, want.track.t) << what;
      EXPECT_EQ(served.track.s, want.track.s) << what;
      EXPECT_EQ(served.track.grade, want.track.grade) << what;
      EXPECT_EQ(served.track.grade_var, want.track.grade_var) << what;
      EXPECT_EQ(served.track.speed, want.track.speed) << what;
    }
  }
}

TEST(MapService, IngestOneMatchesBatchIngestWhenSerial) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 40, 31);

  MapService batch(net, base_config(4));
  batch.ingest(fleet);
  batch.publish();

  MapService streaming(net, base_config(4));
  for (const auto& up : fleet) streaming.ingest_one(up);
  streaming.publish();

  expect_snapshots_identical(*streaming.snapshot(), *batch.snapshot());
  EXPECT_EQ(streaming.total_samples_ingested(),
            batch.total_samples_ingested());
}

// ---- serving ------------------------------------------------------------

TEST(MapService, EpochSnapshotsAreImmutableAndPinned) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 30, 3);
  MapService svc(net, base_config(4));

  const auto empty = svc.snapshot();
  EXPECT_EQ(empty->epoch, 0u);
  ASSERT_EQ(empty->roads.size(), net.size());
  for (const auto& view : empty->roads) EXPECT_EQ(view.size(), 0u);

  svc.ingest({fleet.begin(), fleet.begin() + 15});
  EXPECT_EQ(svc.publish(), 1u);
  const auto first = svc.snapshot();
  EXPECT_EQ(first->epoch, 1u);
  std::size_t covered_first = 0;
  for (const auto& view : first->roads) covered_first += view.size();
  EXPECT_GT(covered_first, 0u);

  // More ingest + publish must not disturb the pinned old buffer.
  svc.ingest({fleet.begin() + 15, fleet.end()});
  EXPECT_EQ(svc.publish(), 2u);
  EXPECT_EQ(svc.epoch(), 2u);
  std::size_t covered_again = 0;
  for (const auto& view : first->roads) covered_again += view.size();
  EXPECT_EQ(covered_again, covered_first);
  EXPECT_EQ(first->epoch, 1u);
  // The old snapshot still reads the 15-upload map; epoch 0's is empty.
  EXPECT_EQ(empty->roads[0].size(), 0u);
}

TEST(MapService, RebalancePreservesThePublishedMapBitExact) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 60, 17);
  MapService svc(net, base_config(4));
  svc.ingest(fleet);
  svc.publish();
  const auto before = svc.snapshot();

  for (const std::size_t new_shards : {16u, 1u, 4u}) {
    svc.rebalance(new_shards);
    EXPECT_EQ(svc.n_shards(), new_shards);
    svc.publish();
    expect_snapshots_identical(*svc.snapshot(), *before);
  }
  // And ingest still works after rebalancing.
  const auto more = synth_fleet(net, 5, 23);
  svc.ingest(more);
  svc.publish();
}

TEST(MapService, MatcherIsServedFromTheHomeShardCache) {
  const road::RoadNetwork net = small_city();
  MapService svc(net, base_config(4));
  const auto m0 = svc.matcher(0);
  ASSERT_NE(m0, nullptr);
  EXPECT_EQ(svc.matcher(0).get(), m0.get());  // cached, same instance
  const auto m1 = svc.matcher(1);
  EXPECT_NE(m1.get(), m0.get());
  // The matcher really is the road's geometry.
  const auto fix = m0->match_point(svc.road(0).geo_at(100.0));
  EXPECT_TRUE(fix.valid);
  EXPECT_NEAR(fix.s_m, 100.0, 1.0);
}

TEST(MapService, RejectsBadInputs) {
  const road::RoadNetwork net = small_city();
  EXPECT_THROW(MapService(road::RoadNetwork{}, base_config(4)),
               std::invalid_argument);
  EXPECT_THROW(MapService(net, base_config(0)), std::invalid_argument);
  MapServiceConfig bad_tile = base_config(2);
  bad_tile.tile_length_m = 0.0;
  EXPECT_THROW(MapService(net, bad_tile), std::invalid_argument);

  MapService svc(net, base_config(2));
  TrackUpload up = synth_fleet(net, 1, 1)[0];
  up.road = static_cast<RoadId>(net.size());
  EXPECT_THROW(svc.ingest({up}), std::out_of_range);
  EXPECT_THROW(svc.ingest_one(up), std::out_of_range);
  EXPECT_THROW(svc.rebalance(0), std::invalid_argument);
  EXPECT_THROW(svc.matcher(static_cast<RoadId>(net.size())),
               std::out_of_range);
}

// ---- concurrency (exercised under TSan via the tsan-runtime preset) -----

TEST(MapService, ConcurrentIngestPublishSnapshotIsSafe) {
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 96, 41);
  MapService svc(net, base_config(4));

  constexpr std::size_t kWriters = 3;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&svc, &fleet, w] {
      for (std::size_t i = w; i < fleet.size(); i += kWriters) {
        svc.ingest_one(fleet[i]);
      }
    });
  }
  std::thread publisher([&svc, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      svc.publish();
    }
  });
  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&svc, &stop, &reads] {
      std::uint64_t local = 0;
      // do-while: each reader takes at least one snapshot even if the
      // writers finish before this thread is first scheduled.
      do {
        const auto snap = svc.snapshot();
        for (const auto& view : snap->roads) local += view.size();
        ++local;
      } while (!stop.load(std::memory_order_relaxed));
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  for (auto& th : readers) th.join();
  EXPECT_GT(reads.load(), 0u);

  // Concurrent streaming races for per-cell order (so sums are not
  // bit-comparable to serial), but conservation laws hold exactly:
  // every upload's samples landed, and the final published map covers
  // the same cells with the same per-cell coverage as a serial run.
  std::uint64_t expected_samples = 0;
  MapService serial(net, base_config(4));
  for (const auto& up : fleet) {
    expected_samples += up.track.s.size();
    serial.ingest_one(up);
  }
  // total_samples_ingested() uses tile-local attribution, which can
  // count a boundary-straddling sample in two tiles; compare against the
  // serial service (identical routing), not the raw upload sizes.
  EXPECT_GE(svc.total_samples_ingested(), expected_samples / 2);
  EXPECT_EQ(svc.total_samples_ingested(), serial.total_samples_ingested());

  svc.publish();
  serial.publish();
  const auto a = svc.snapshot();
  const auto b = serial.snapshot();
  ASSERT_EQ(a->roads.size(), b->roads.size());
  for (std::size_t r = 0; r < a->roads.size(); ++r) {
    EXPECT_EQ(a->roads[r].cells, b->roads[r].cells) << r;
    EXPECT_EQ(a->roads[r].coverage, b->roads[r].coverage) << r;
  }
}

/// Order-insensitive-enough content checksum for immutability checks: FNV
/// over the exact bit patterns of every view's cells, coverage, and grade.
std::uint64_t snapshot_checksum(const ServiceSnapshot& snap) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& view : snap.roads) {
    mix(view.cells.size());
    for (const auto c : view.cells) mix(c);
    for (const auto c : view.coverage) mix(c);
    for (const double g : view.track.grade) {
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(g));
      std::memcpy(&bits, &g, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

TEST(MapService, RebalanceBetweenConcurrentIngestRoundsKeepsReadersSafe) {
  // Phased hostile schedule: rounds of concurrent ingest_one + publish,
  // then writer quiescence, then rebalance to a new shard count — while
  // reader threads run WITHOUT interruption across every phase. Pinned
  // epoch snapshots must stay bit-frozen through rebalance (checksummed
  // every iteration) and the served epoch must never regress. Exercised
  // under TSan via the tsan-runtime preset (name matches MapService\.).
  const road::RoadNetwork net = small_city();
  const auto fleet = synth_fleet(net, 90, 53);
  MapService svc(net, base_config(4));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> epoch_regressions{0};
  std::atomic<std::uint64_t> pin_violations{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int rdr = 0; rdr < 2; ++rdr) {
    readers.emplace_back([&] {
      std::shared_ptr<const ServiceSnapshot> pinned;
      std::uint64_t pinned_sum = 0;
      std::uint64_t last_epoch = 0;
      do {
        const auto snap = svc.snapshot();
        if (snap->epoch < last_epoch) {
          epoch_regressions.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = snap->epoch;
        // Re-pin occasionally so the pinned buffer crosses rebalances.
        if (!pinned || (snap->epoch > pinned->epoch + 2)) {
          pinned = snap;
          pinned_sum = snapshot_checksum(*pinned);
        } else if (snapshot_checksum(*pinned) != pinned_sum) {
          pin_violations.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  const std::size_t shard_plan[] = {9, 1, 4};
  const std::size_t slice = fleet.size() / std::size(shard_plan);
  for (std::size_t round = 0; round < std::size(shard_plan); ++round) {
    // Phase 1: concurrent streaming ingest + publisher.
    const std::size_t lo = round * slice;
    const std::size_t hi =
        (round + 1 == std::size(shard_plan)) ? fleet.size() : lo + slice;
    std::atomic<bool> round_done{false};
    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        for (std::size_t i = lo + w; i < hi; i += 2) svc.ingest_one(fleet[i]);
      });
    }
    std::thread publisher([&] {
      while (!round_done.load(std::memory_order_relaxed)) svc.publish();
    });
    for (auto& th : writers) th.join();
    round_done.store(true, std::memory_order_relaxed);
    publisher.join();

    // Phase 2: writers and publisher quiesced (rebalance's documented
    // precondition); readers are still running. Rebalancing must
    // preserve the published map bit-exactly.
    svc.publish();
    const auto before = svc.snapshot();
    const std::uint64_t before_sum = snapshot_checksum(*before);
    svc.rebalance(shard_plan[round]);
    EXPECT_EQ(svc.n_shards(), shard_plan[round]);
    svc.publish();
    const auto after = svc.snapshot();
    EXPECT_EQ(snapshot_checksum(*after), before_sum) << "round " << round;
    expect_snapshots_identical(*after, *before);
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_EQ(pin_violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);

  // Conservation after the full phased schedule: same cells and coverage
  // as one serial pass over the whole fleet.
  MapService serial(net, base_config(4));
  for (const auto& up : fleet) serial.ingest_one(up);
  serial.publish();
  EXPECT_EQ(svc.total_samples_ingested(), serial.total_samples_ingested());
  const auto a = svc.snapshot();
  const auto b = serial.snapshot();
  ASSERT_EQ(a->roads.size(), b->roads.size());
  for (std::size_t r = 0; r < a->roads.size(); ++r) {
    EXPECT_EQ(a->roads[r].cells, b->roads[r].cells) << r;
    EXPECT_EQ(a->roads[r].coverage, b->roads[r].coverage) << r;
  }
}

}  // namespace
}  // namespace rge::service
