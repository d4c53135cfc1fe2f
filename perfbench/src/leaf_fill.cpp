// leaf-fill: one thread, one bare VCF leaf with the paper's defaults
// (b = 4, f = 14, MAX = 500, FNV). No wrapper, lock or socket sits between
// the benchmark and the kernel, so this workload isolates hash, table and
// core kernel work; wrapper and server changes should leave it flat.
//
// Phases: single-key inserts from empty to 95% load, then eight rounds of
// batched lookups (half hits, half never-inserted keys), a fixed amount of
// single-key erase+insert churn held at 95% and an open loop of the same
// op mix at a fixed rate, then SaveState/LoadState cycles.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/vcf.hpp"
#include "hash/hash64.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr unsigned kSlotsLog2 = 23;  // 2^23 slots x 14 bits = 14 MiB
constexpr double kLoad = 0.95;
constexpr std::size_t kLookupKeys = std::size_t{1} << 20;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kProbeKeys = 8192;
// One thread at about a tenth of its capacity. Between requests the table
// sits idle, so this figure also reads how much of it other tenants of the
// shared L3 have evicted (README "Reference figures").
constexpr double kOpenLoopRate = 250000;  // requests/s
constexpr int kReloads = 15;
constexpr int kFills = 3;
constexpr int kRounds = 8;
constexpr int kChurnBlocks = 5;  // per round
constexpr std::size_t kChurnPairs = std::size_t{1} << 16;
constexpr std::size_t kFprProbes = std::size_t{1} << 22;

vcf::CuckooParams LeafParams() {
  vcf::CuckooParams p = vcf::CuckooParams::ForSlotsLog2(kSlotsLog2);
  return p;  // b = 4, f = 14, MAX = 500, FNV: the paper's settings
}

std::uint64_t FillCount() {
  return static_cast<std::uint64_t>(kLoad *
                                    static_cast<double>(std::size_t{1} << kSlotsLog2));
}

struct LeafState {
  std::unique_ptr<vcf::VerticalCuckooFilter> leaf;
  std::vector<std::uint64_t> lookups;  // mixed hits and misses
  std::vector<std::uint64_t> hit_index;  // fill index of a hit, kMiss for a miss
};

constexpr std::uint64_t kMiss = UINT64_MAX;

LeafState BuildLeaf(const KeyStreams& keys) {
  LeafState s;
  s.leaf = std::make_unique<vcf::VerticalCuckooFilter>(LeafParams());
  const std::uint64_t n = FillCount();
  Rng rng(keys.At(Role::kChoice, 0));
  s.lookups.resize(kLookupKeys);
  s.hit_index.resize(kLookupKeys);
  // Hits come from the upper half of the fill, which the churn, erasing
  // the oldest keys first, reaches last.
  for (std::size_t j = 0; j < kLookupKeys; ++j) {
    const bool hit = (rng.Next() & 1) != 0;
    s.hit_index[j] = hit ? n / 2 + rng.Below(n - n / 2) : kMiss;
    s.lookups[j] = hit ? keys.At(Role::kFill, s.hit_index[j]) : keys.At(Role::kMiss, j);
  }
  return s;
}

/// Probe-set answers for the save/load round-trip check.
std::vector<bool> ProbeAnswers(const vcf::Filter& f, const KeyStreams& keys,
                               std::uint64_t lo, std::uint64_t hi) {
  std::vector<bool> out;
  out.reserve(2 * kProbeKeys);
  for (std::size_t i = 0; i < kProbeKeys; ++i) {
    out.push_back(f.Contains(keys.At(Role::kFill, lo + i * (hi - lo) / kProbeKeys)));
    out.push_back(f.Contains(keys.At(Role::kProbe, i)));
  }
  return out;
}

}  // namespace

void LeafFill(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  LeafState st;
  const double setup_s = TimedSetup(
      9, [&] { st = LeafState{}; }, [&] { st = BuildLeaf(keys); });
  report.Note("leaf: " + st.leaf->Name() + ", " + std::to_string(st.leaf->SlotCount()) +
              " slots, " + std::to_string(st.leaf->MemoryBytes() >> 20) +
              " MiB table; probe arm " +
              vcf::ProbeArmName(st.leaf->table().probe_arm()));

  const std::uint32_t sp_insert = tracer.Name("vcf.Insert");
  const std::uint32_t sp_erase = tracer.Name("vcf.Erase");
  const std::uint32_t sp_contains = tracer.Name("vcf.Contains");
  const std::uint32_t sp_batch = tracer.Name("vcf.ContainsBatch");

  // Phase 1: fill from empty to 95% load, one timestamp per insert. The
  // fill is repeated on fresh tables and each figure is the median fill's;
  // the later phases run on the last table.
  const std::uint64_t n = FillCount();
  std::vector<std::uint64_t> refused;
  std::vector<double> fill_mops, fill_p50, fill_p99;
  for (int f = 0; f < kFills; ++f) {
    if (f > 0) {
      st.leaf.reset();  // one table at a time keeps peak RSS comparable
      st.leaf = std::make_unique<vcf::VerticalCuckooFilter>(LeafParams());
    }
    refused.clear();
    vcf::LatencyHistogram lat;
    const std::uint64_t fill_t0 = NowNs();
    std::uint64_t prev = fill_t0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!st.leaf->Insert(keys.At(Role::kFill, i))) refused.push_back(i);
      const std::uint64_t now = NowNs();
      lat.Record(now - prev);
      tracer.Record(0, sp_insert, prev, now, OpId(1, 0, i));
      prev = now;
    }
    fill_mops.push_back(Mops(n, SecondsSince(fill_t0)));
    fill_p50.push_back(lat.ValueAtQuantile(0.50) * 1e-3);
    fill_p99.push_back(lat.ValueAtQuantile(0.99) * 1e-3);
    report.Ops("insert", n, refused.size());
  }
  vcf::VerticalCuckooFilter& leaf = *st.leaf;
  const auto is_refused = [&](std::uint64_t i) {
    return !refused.empty() && std::binary_search(refused.begin(), refused.end(), i);
  };

  // Rounds on the last table, each a chunk of every later phase, so each
  // figure is a median over chunks spread across the run rather than over
  // one stretch of it.
  //  - batched lookups, half hits and half misses, for a fixed time;
  //  - erase+insert churn at 95%: erase the oldest live key, insert a fresh
  //    one, so the live set stays the index range [lo, hi). Its work is
  //    fixed (kChurnBlocks blocks of kChurnPairs pairs per round, whatever
  //    the host's speed) and the figure is the median block's rate;
  //  - an open loop at a fixed rate: 90% single-key lookups (half hits,
  //    half misses), 10% updates (erase the oldest live key, insert a fresh
  //    one).
  std::uint64_t lookups = 0, lookup_fn = 0;
  bool results[kBatch];
  std::vector<double> lookup_mops_v;
  std::uint64_t lo = 0, hi = n, erase_fail = 0, churn_refused = 0, churn_ops = 0;
  std::vector<double> churn_mops;
  Rng rng(keys.At(Role::kChoice, 1));
  const double open_s = Budget(args, 0.2) / kRounds;
  constexpr std::uint64_t kOpenWindowNs = 20000000;  // 20 ms
  const std::uint64_t open_windows = static_cast<std::uint64_t>(open_s * 1e9) / kOpenWindowNs + 2;
  WindowedLatency request_lat(kOpenWindowNs * 1e-9);
  std::uint64_t late_ns = 0, ol_requests = 0, ol_lookups = 0, ol_fn = 0, ol_updates = 0,
                ol_fail = 0;
  std::size_t at = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t lookup_t0 = NowNs();
    const std::uint64_t lookup_end =
        lookup_t0 + static_cast<std::uint64_t>(Budget(args, 0.25) / kRounds * 1e9);
    std::uint64_t round_lookups = 0;
    for (std::uint64_t e = lookup_t0; e < lookup_end; at = (at + kBatch) % kLookupKeys) {
      const std::uint64_t s = NowNs();
      leaf.ContainsBatch({st.lookups.data() + at, kBatch}, results);
      e = NowNs();
      tracer.Record(0, sp_batch, s, e, OpId(2, 0, lookups));
      for (std::size_t j = 0; j < kBatch; ++j) {
        const std::uint64_t idx = st.hit_index[at + j];
        if (idx != kMiss && idx >= lo) lookup_fn += results[j] ? 0 : 1;
      }
      lookups += kBatch;
      round_lookups += kBatch;
    }
    lookup_mops_v.push_back(Mops(round_lookups, SecondsSince(lookup_t0)));

    std::uint64_t prev = NowNs();
    for (int block = 0; block < kChurnBlocks; ++block) {
      const std::uint64_t block_t0 = prev;
      for (std::size_t k = 0; k < kChurnPairs; ++k) {
        if (!is_refused(lo) && !leaf.Erase(keys.At(Role::kFill, lo))) ++erase_fail;
        ++lo;
        std::uint64_t now = NowNs();
        tracer.Record(0, sp_erase, prev, now, OpId(3, 0, churn_ops));
        prev = now;
        if (!leaf.Insert(keys.At(Role::kFill, hi))) {
          refused.push_back(hi);
          ++churn_refused;
        }
        ++hi;
        now = NowNs();
        tracer.Record(0, sp_insert, prev, now, OpId(3, 0, churn_ops + 1));
        prev = now;
        churn_ops += 2;
      }
      churn_mops.push_back(
          Mops(2 * kChurnPairs, static_cast<double>(prev - block_t0) * 1e-9));
    }

    request_lat.SetBase(static_cast<std::uint64_t>(round) * open_windows * kOpenWindowNs);
    ol_requests += OpenLoop(
        kOpenLoopRate, open_s, UINT64_MAX, request_lat, &late_ns,
        [&](std::uint64_t i) {
          const std::uint64_t op = ol_lookups + ol_updates;
          const std::uint64_t r = rng.Below(20);
          const std::uint64_t s = NowNs();
          if (r < 9) {
            std::uint64_t idx;
            do idx = lo + rng.Below(hi - lo); while (is_refused(idx));
            ol_fn += leaf.Contains(keys.At(Role::kFill, idx)) ? 0 : 1;
            ++ol_lookups;
            tracer.Record(0, sp_contains, s, NowNs(), OpId(4, 0, op));
          } else if (r < 18) {
            Keep(leaf.Contains(keys.At(Role::kMiss, kLookupKeys + ol_requests + i)));
            ++ol_lookups;
            tracer.Record(0, sp_contains, s, NowNs(), OpId(4, 0, op));
          } else {
            if (!is_refused(lo) && !leaf.Erase(keys.At(Role::kFill, lo))) ++ol_fail;
            ++lo;
            if (!leaf.Insert(keys.At(Role::kFill, hi))) {
              refused.push_back(hi);
              ++ol_fail;
            }
            ++hi;
            ++ol_updates;
            tracer.Record(0, sp_insert, s, NowNs(), OpId(4, 0, op));
          }
        });
  }
  // Refused inserts are not live, so their "hits" are not false negatives.
  if (!refused.empty()) lookup_fn = 0;
  report.Ops("lookup", lookups, lookup_fn);
  report.Ops("erase", churn_ops / 2, erase_fail);
  report.Ops("insert", churn_ops / 2, churn_refused);
  report.Ops("lookup", ol_lookups, ol_fn);
  report.Ops("update", ol_updates, ol_fail);
  std::ostringstream ol;
  ol << kRounds << " rounds; open loop: " << ol_requests << " requests at " << kOpenLoopRate
     << "/s, generator at most " << late_ns * 1e-3 << " us late";
  report.Note(ol.str());

  // Phase 5: SaveState -> LoadState cycles on the same leaf.
  const std::vector<bool> before = ProbeAnswers(leaf, keys, lo, hi);
  std::vector<double> reloads;
  bool reload_ok = true;
  for (int c = 0; c < kReloads; ++c) {
    const std::uint64_t t0 = NowNs();
    std::stringstream blob;
    reload_ok = reload_ok && leaf.SaveState(blob) && leaf.LoadState(blob);
    reloads.push_back(SecondsSince(t0));
  }
  report.Check(reload_ok, "leaf SaveState/LoadState succeed");
  report.Check(ProbeAnswers(leaf, keys, lo, hi) == before,
               "leaf answers a fixed probe set identically after save/load");

  // Output checks: every live key answers true; ItemCount matches the
  // reference count; the miss FPR stays under Eq. 10.
  std::sort(refused.begin(), refused.end());
  std::uint64_t live = 0, final_fn = 0;
  {
    std::vector<std::uint64_t> batch;
    batch.reserve(kBatch);
    bool res[kBatch];
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (is_refused(i)) continue;
      batch.push_back(keys.At(Role::kFill, i));
      ++live;
      if (batch.size() == kBatch || i + 1 == hi) {
        leaf.ContainsBatch(batch, res);
        for (std::size_t j = 0; j < batch.size(); ++j) final_fn += res[j] ? 0 : 1;
        batch.clear();
      }
    }
  }
  report.Check(final_fn == 0 && lookup_fn == 0 && ol_fn == 0,
               "no false negatives among live keys (" + std::to_string(live) +
                   " checked at the end)");
  report.Check(leaf.ItemCount() == live,
               "ItemCount() == reference live count " + std::to_string(live));
  report.Check(refused.empty() && erase_fail == 0,
               "no insert refused and no erase missed at 95% load");
  const double alpha = leaf.LoadFactor();
  const double r = BalancedR(leaf.params().fingerprint_bits);
  const double bound = Eq10Bound(leaf.params().fingerprint_bits, r,
                                 leaf.params().slots_per_bucket, alpha);
  std::ostringstream what;
  what << "Eq. 10 bound (f=14, b=4, alpha=" << alpha << ", r=" << r << ")";
  CheckFpr(report, MissFpr(leaf, keys, kFprProbes), kFprProbes, bound, what.str());
  report.Check(std::abs(r - leaf.TheoreticalR()) < 1e-9,
               "Eq. 5 r recomputed here matches the leaf's own r");

  report.E2e("setup_s", setup_s, "s");
  report.E2e("insert_mops", vcf::Quantile(fill_mops, 0.5), "Mops/s");
  report.E2e("insert_p50_us", vcf::Quantile(fill_p50, 0.5), "us");
  report.E2e("insert_p99_us", vcf::Quantile(fill_p99, 0.5), "us");
  const double lookup_mops = vcf::Quantile(lookup_mops_v, 0.5);
  const double churn_med = vcf::Quantile(churn_mops, 0.5);
  report.Note("churn: " + std::to_string(churn_med) + " Mops/s, median of " +
              std::to_string(kRounds * kChurnBlocks) + " blocks of " +
              std::to_string(kChurnPairs) + " erase+insert pairs");
  report.E2e("lookup_mops", lookup_mops, "Mops/s");
  report.E2e("mixed_mops", churn_med, "Mops/s");
  report.E2e("bits_per_key",
             static_cast<double>(leaf.MemoryBytes()) * 8.0 / static_cast<double>(live),
             "bits");
  report.E2e("reload_s", vcf::Quantile(reloads, 0.5), "s");
  report.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  report.E2e("serve_mops", CombinedMops(lookups, lookup_mops, churn_ops, churn_med),
             "Mops/s");
  ReportLatency(report, "request", request_lat, false);
}

void LedgerLeaf(const Args& args, Report& report, Tracer& tracer) {
  const KeyStreams keys(args.seed);
  LeafState st = BuildLeaf(keys);
  vcf::VerticalCuckooFilter& leaf = *st.leaf;
  const vcf::CuckooParams params = leaf.params();

  // Fill, bulk-timed, with the kernel's own counters.
  const std::uint64_t n = FillCount();
  leaf.ResetCounters();
  std::uint64_t t0 = NowNs();
  for (std::uint64_t i = 0; i < n; ++i) leaf.Insert(keys.At(Role::kFill, i));
  const double fill_ns = static_cast<double>(NowNs() - t0) / static_cast<double>(n);
  const vcf::OpCounters after_fill = leaf.counters();

  const std::size_t m = kLookupKeys / 4;
  const std::uint64_t* k = st.lookups.data();
  const double hash_ns = BulkNs(m, [&](std::size_t i) {
    return vcf::Hash64(params.hash, k[i], params.seed);
  });

  // Kernel lookups with counters (probes per lookup, hashes per op).
  leaf.ResetCounters();
  BulkNs(m, [&](std::size_t i) { return leaf.Contains(k[i]); }, 1);
  const vcf::OpCounters after_lookup = leaf.counters();
  const double lookup_ns_med =
      BulkNs(m, [&](std::size_t i) { return leaf.Contains(k[i]); });
  bool res[kBatch];
  const double batch_ns = BulkNs(m / kBatch, [&](std::size_t i) {
                            leaf.ContainsBatch({k + i * kBatch, kBatch}, res);
                            return res[0];
                          }) / static_cast<double>(kBatch);

  // Bare table probe over precomputed candidate sets.
  std::vector<vcf::VerticalCuckooFilter::Hashed> hashed(m);
  for (std::size_t i = 0; i < m; ++i) hashed[i] = leaf.HashKey(k[i]);
  const vcf::PackedTable& table = leaf.table();
  const double probe_ns = BulkNs(m, [&](std::size_t i) {
    return table.ContainsValueAny(hashed[i].cand.bucket.data(), 4, hashed[i].fp);
  });

  // Traced passes: a span per call at each entry point, same keys.
  const std::size_t tn = std::size_t{1} << 16;
  const double traced_lookup =
      TracedPass(tracer, "ledger.vcf.Contains", 16, tn,
                 [&](std::size_t i) { return leaf.Contains(k[i]); });
  TracedPass(tracer, "ledger.hash.Hash64", 17, tn, [&](std::size_t i) {
    return vcf::Hash64(params.hash, k[i], params.seed);
  });
  TracedPass(tracer, "ledger.table.ContainsValueAny", 18, tn, [&](std::size_t i) {
    return table.ContainsValueAny(hashed[i].cand.bucket.data(), 4, hashed[i].fp);
  });

  report.Layer("hash.ns_per_key", hash_ns, "ns");
  report.Layer("table.probe_ns", probe_ns, "ns");
  report.Layer("core.kernel.insert_ns", fill_ns, "ns");
  report.Layer("core.kernel.lookup_ns", lookup_ns_med, "ns");
  report.Layer("core.kernel.lookup_batch_ns", batch_ns, "ns");
  report.Layer("core.kernel.evictions_per_insert", after_fill.EvictionsPerInsert(),
               "count");
  report.Layer("core.kernel.probes_per_lookup", after_lookup.ProbesPerLookup(),
               "count");
  const double ops = static_cast<double>(after_fill.inserts.Value() +
                                         after_lookup.lookups.Value());
  report.Layer("core.kernel.hashes_per_op",
               static_cast<double>(after_fill.hash_computations.Value() +
                                   after_lookup.hash_computations.Value()) / ops,
               "count");
  std::ostringstream s;
  s << "ledger leaf: " << n << " keys to load " << leaf.LoadFactor()
    << "; kernel lookup " << lookup_ns_med << " ns = table probe " << probe_ns
    << " ns + hashing and candidate derivation "
    << lookup_ns_med - probe_ns << " ns";
  if (tracer.enabled()) {
    s << "; a traced lookup takes " << traced_lookup << " ns (span cost "
      << traced_lookup - lookup_ns_med << " ns)";
  }
  report.Note(s.str());
}

}  // namespace perfbench
