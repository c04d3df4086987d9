#include "storage/star_query_engine.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <utility>

#include "algebra/operators.h"
#include "cache/query_fingerprint.h"
#include "common/failpoint.h"
#include "common/flat_map64.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/task_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/workload_profiler.h"
#include "olap/aggregate.h"
#include "storage/predicate.h"
#include "storage/scan_kernels.h"

namespace assess {

namespace {

// Pass flags over a source's code domain, indexed by code (null: every code
// passes). Shared, because every consumer of an MQO batch applies the same
// conjunction: the batch builds each hierarchy's flags once and all of its
// plans hold them.
using PassFlags = std::shared_ptr<const std::vector<uint8_t>>;

// Per-hierarchy scan plan: translation arrays from the source's code domain
// (dimension rows for fact scans, Dom(view level) for view scans) to group
// member ids and predicate pass flags.
struct HierScanPlan {
  bool grouped = false;
  // Source code column: a raw pointer (into a fact snapshot's pinned bank,
  // or a rolled-up cube's coordinate column) so plans never re-read a
  // vector object a concurrent appender may be growing.
  const int32_t* codes = nullptr;
  // Exclusive upper bound of the source's code domain (dimension row count
  // for fact scans, Dom(view level) for roll-up scans): the lane-table
  // length of the fused kernels.
  int64_t code_domain = 0;
  // Fact-table dimension index behind `codes` (for the row-range index), or
  // -1 when the source is a rolled-up cube (views, cached results) — those
  // carry no row-range index.
  int fact_dim = -1;
  // Translation domain -> group member id: either borrowed from a dimension
  // table column (fact scans) or owned (view scans). Never point
  // `external_group_code` at `owned_group_code`: plans are moved into a
  // vector, which would dangle the self-reference. group_code() resolves
  // the effective array.
  const std::vector<MemberId>* external_group_code = nullptr;
  std::vector<MemberId> owned_group_code;
  PassFlags pass;
  uint64_t radix = 0;
  int group_level = 0;
  std::shared_ptr<Hierarchy> hierarchy;

  const std::vector<MemberId>& group_code() const {
    return external_group_code != nullptr ? *external_group_code
                                          : owned_group_code;
  }
};

// Deepest group-by set any scan accepts (the generic kernel's per-row
// member buffer).
constexpr size_t kMaxGroupLevels = 16;

// Aggregates source rows [begin, end) into `state` (the generic hash
// kernel, used when the mixed-radix key space exceeds kDenseKeyLimit —
// the fused kernels of storage/scan_kernels.h cover everything smaller).
// Keys are mixed-radix coordinate encodings offset by one, so they are
// always >= 1 (FlatMap64's empty sentinel is 0) even for fully aggregated
// queries.
void AggregateRange(int64_t begin, int64_t end,
                    const std::vector<HierScanPlan*>& needed,
                    const std::vector<HierScanPlan*>& grouped,
                    const std::vector<ScanMeasure>& measures,
                    AggState* state) {
  std::array<MemberId, kMaxGroupLevels> row_groups;
  FlatMap64& map = state->Map();
  state->rows_visited += end - begin;
  for (int64_t r = begin; r < end; ++r) {
    uint64_t key = 1;
    bool pass = true;
    int g = 0;
    for (HierScanPlan* h : needed) {
      int32_t code = h->codes[r];
      if (h->pass != nullptr && !(*h->pass)[code]) {
        pass = false;
        break;
      }
      if (h->grouped) {
        MemberId member = h->group_code()[code];
        row_groups[g++] = member;
        key += h->radix * (static_cast<uint64_t>(member) + 1);
      }
    }
    if (!pass) continue;
    ++state->rows_passed;

    bool inserted = false;
    int32_t group = map.FindOrInsert(key, state->num_groups, &inserted);
    if (inserted) {
      ++state->num_groups;
      for (size_t i = 0; i < grouped.size(); ++i) {
        state->out_coords[i].push_back(row_groups[i]);
      }
      agg::AppendGroup(state->cols);
    }
    for (size_t m = 0; m < measures.size(); ++m) {
      const double* src = measures[m].source;
      agg::Iter(state->cols[m], group, src != nullptr ? src[r] : 0.0);
    }
  }
}

// Folds `from` into `into` (the parallel path's merge step): groups are
// re-keyed from their stored coordinates and accumulators combined by
// agg::Merge.
void MergeAggStates(const std::vector<HierScanPlan*>& grouped,
                    const AggState& from, AggState* into) {
  const int num_grouped = static_cast<int>(grouped.size());
  FlatMap64& map = into->Map();
  for (int32_t g = 0; g < from.num_groups; ++g) {
    uint64_t key = 1;
    for (int i = 0; i < num_grouped; ++i) {
      key += grouped[i]->radix *
             (static_cast<uint64_t>(from.out_coords[i][g]) + 1);
    }
    bool inserted = false;
    int32_t group = map.FindOrInsert(key, into->num_groups, &inserted);
    if (inserted) {
      ++into->num_groups;
      for (int i = 0; i < num_grouped; ++i) {
        into->out_coords[i].push_back(from.out_coords[i][g]);
      }
      agg::AppendGroup(into->cols);
    }
    for (size_t m = 0; m < into->cols.size(); ++m) {
      agg::Merge(into->cols[m], group, from.cols[m], g);
    }
  }
}

// How one scan is scheduled: which pool runs its morsels and how many
// participants it may occupy. `scanned`/`skipped` report back what
// happened, for the engine's counters and the server stats frame.
struct MorselExec {
  TaskPool* pool = nullptr;
  int max_threads = 1;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  // What the driver actually ran, for spans and EXPLAIN ANALYZE: the SIMD
  // tier (meaningful when `fused`), whether the dense fused kernel or the
  // generic hash kernel did the work, and the scan's selectivity inputs.
  SimdLevel simd = SimdLevel::kScalar;
  bool fused = false;
  int64_t rows_visited = 0;
  int64_t rows_passed = 0;
  // Set-up work, counted exactly: the entries of every pass-flag array the
  // scan's plans built plus every lane-table entry the driver built.
  int64_t setup_entries = 0;
};

// Process-wide dispatch counters (one bump per scan, not per morsel): which
// kernel tier actually ran, for `\metrics` and the CI smoke checks.
void CountKernelDispatch(const MorselExec& exec) {
  static Counter* const generic = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_generic_total",
      "Scans aggregated by the generic hash kernel");
  static Counter* const scalar = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_scalar_total",
      "Scans aggregated by the fused scalar kernel");
  static Counter* const avx2 = MetricsRegistry::Instance().GetCounter(
      "assess_kernel_dispatch_avx2_total",
      "Scans aggregated by the fused AVX2 kernel");
  if (!exec.fused) {
    generic->Inc(1);
    return;
  }
  switch (exec.simd) {
    case SimdLevel::kScalar:
      scalar->Inc(1);
      break;
    case SimdLevel::kAVX2:
      avx2->Inc(1);
      break;
  }
}

// A half-open source row range [begin, end).
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
};

// The rows of [0, end) a scan predicated on `pass` can accept, as ascending
// disjoint runs: the rows each passing code of `prefix` occupies (adjacent
// ones fused), then every row past the clustered prefix, whose order says
// nothing.
std::vector<RowRange> PassingRowRuns(const ClusteredPrefix& prefix,
                                     const std::vector<uint8_t>& pass,
                                     int64_t end) {
  std::vector<RowRange> runs;
  auto add = [&](int64_t lo, int64_t hi) {
    hi = std::min(hi, end);
    if (lo >= hi) return;
    if (!runs.empty() && runs.back().end == lo) {
      runs.back().end = hi;
    } else {
      runs.push_back(RowRange{lo, hi});
    }
  };
  const size_t n = prefix.codes.size();
  for (size_t i = 0; i < n; ++i) {
    if (!pass[prefix.codes[i]]) continue;
    add(prefix.first_row[i], i + 1 < n ? prefix.first_row[i + 1] : prefix.rows);
  }
  add(prefix.rows, end);
  return runs;
}

// A lane table over codes [0, n) of one hierarchy (scan_kernels.h): the
// reject bit where `pass` rejects the code, OR-ed over radix × (group member
// + 1) where `group` is set. A plan touches a hierarchy only to test or to
// group it, so at least one of the two is set. Each loop is branch-free
// over sequential reads, which lets the compiler vectorise it.
std::unique_ptr<uint32_t[]> BuildLane(const uint8_t* pass,
                                      const MemberId* group, uint32_t radix,
                                      int64_t n) {
  // Default-initialized: every entry is written below.
  std::unique_ptr<uint32_t[]> lane(new uint32_t[static_cast<size_t>(n)]);
  uint32_t* out = lane.get();
  if (group == nullptr) {
    for (int64_t c = 0; c < n; ++c) out[c] = (pass[c] - 1u) & kLaneReject;
  } else if (pass == nullptr) {
    for (int64_t c = 0; c < n; ++c) {
      out[c] = radix * (static_cast<uint32_t>(group[c]) + 1u);
    }
  } else {
    for (int64_t c = 0; c < n; ++c) {
      out[c] = ((pass[c] - 1u) & kLaneReject) |
               radix * (static_cast<uint32_t>(group[c]) + 1u);
    }
  }
  return lane;
}

// Annotates a scan span with the kernel path and observed selectivity.
void AddKernelSpanAttrs(Span& span, const MorselExec& exec) {
  if (!span.active()) return;
  span.AddString("simd", exec.fused ? SimdLevelName(exec.simd) : "generic");
  span.AddString("kernel", exec.fused ? "fused_dense" : "hash");
  span.AddInt("rows_visited", exec.rows_visited);
  span.AddInt("rows_passed", exec.rows_passed);
  span.AddInt("setup_entries", exec.setup_entries);
  if (exec.rows_visited > 0) {
    // Per-mille so the span attribute stays integral.
    span.AddInt("selectivity_permille",
                exec.rows_passed * 1000 / exec.rows_visited);
  }
}

}  // namespace

// One query's compiled scan: its per-hierarchy and per-measure plans and,
// for fact scans, the snapshot's row-range index that narrows a predicated
// scan to the rows its slice can hold (null for roll-up sources, which
// carry none).
struct ScanConsumer {
  std::vector<HierScanPlan> hiers;
  std::vector<ScanMeasure> measures;  // operators as the source re-aggregates
  std::vector<std::string> measure_names;
  const std::vector<ClusteredPrefix>* clustered = nullptr;
};

namespace {

// The scan driver: every get, roll-up, delta merge and MQO batch is one
// call. One morsel pass over source rows [begin, end) feeds every
// consumer's accumulator set. Morsels are kMorselRows-sized, anchored at
// `begin` and pulled dynamically by pool workers; each morsel evaluates
// predicate-and-aggregate in a single pass into its own partial state per
// consumer (no intermediate row-id vector). A predicated fact scan visits
// each morsel only over the one row range its slice can occupy there (see
// PassingRowRuns), and skips a morsel that holds no such row. Rows outside
// the range fail the predicate, so every partial holds the same rows, added
// in the same order, as a scan of the whole morsel. Partials merge in
// morsel index order, so the floating-point reduction order — and
// therefore every output bit — is a function of the data alone, identical
// across thread counts and across runs.
//
// N consumers (an MQO batch) must share one predicate conjunction (the
// caller's group contract): the row ranges are computed from consumer 0
// and are valid for every consumer. Without a predicate, or with
// one consumer (a solo get, a view or cache roll-up, a delta merge), each
// consumer runs exactly its solo kernel over the morsel at absolute rows.
//
// A predicated batch shares the conjunction's evaluation: it is tested ONCE
// per morsel and the passing rows' positions collected in order; every
// fused consumer then aggregates only those rows, reading codes and measure
// values gathered once per morsel per distinct source. Under a selective
// predicate N consumers cost about one scan plus N tiny aggregations, not
// N scans. Compaction keeps the passing rows in order and the kernels add
// them in row order, so every output is bit-identical to running that
// consumer alone. Consumers whose key space exceeds the dense limit run
// the generic hash kernel at absolute rows.
Result<std::vector<Cube>> ScanConsumers(int64_t begin, int64_t end,
                                        std::vector<ScanConsumer>& consumers,
                                        MorselExec* exec) {
  const int num_consumers = static_cast<int>(consumers.size());
  const int64_t rows = end - begin;

  struct Compiled {
    std::vector<HierScanPlan*> needed;
    std::vector<HierScanPlan*> grouped;
    FusedScanArgs args;
    bool fused = false;
    // Compacted path only: per fused column, index into the shared code-
    // source list; per measure, index into the shared measure-source list,
    // or -1 for null sources (count).
    std::vector<int> code_of;
    std::vector<int> msource_of;
  };
  std::vector<Compiled> compiled(num_consumers);
  auto intern = [](auto& list, const auto& item) {
    for (size_t d = 0; d < list.size(); ++d) {
      if (list[d] == item) return static_cast<int>(d);
    }
    list.push_back(item);
    return static_cast<int>(list.size() - 1);
  };

  // The plans' pass flags, each counted once: a batch's consumers share
  // the flags of their common conjunction.
  std::vector<const std::vector<uint8_t>*> flag_arrays;
  for (const ScanConsumer& consumer : consumers) {
    for (const HierScanPlan& h : consumer.hiers) {
      if (h.pass != nullptr) intern(flag_arrays, h.pass.get());
    }
  }
  for (const std::vector<uint8_t>* flags : flag_arrays) {
    exec->setup_entries += static_cast<int64_t>(flags->size());
  }

  // One lane table per distinct input: consumers whose lanes read the same
  // flags and group column at the same radix (the predicated-only
  // hierarchies of a batch, say) share one table.
  struct LaneKey {
    const uint8_t* pass = nullptr;
    const MemberId* group = nullptr;
    uint32_t radix = 0;
    int64_t domain = 0;
    bool operator==(const LaneKey&) const = default;
  };
  std::vector<LaneKey> lane_keys;
  std::vector<std::unique_ptr<uint32_t[]>> lanes;

  for (int c = 0; c < num_consumers; ++c) {
    Compiled& comp = compiled[c];
    // Radix assignment over the grouped hierarchies.
    uint64_t factor = 1;
    for (HierScanPlan& h : consumers[c].hiers) {
      comp.needed.push_back(&h);
      if (!h.grouped) continue;
      h.radix = factor;
      uint64_t card = static_cast<uint64_t>(
                          h.hierarchy->LevelCardinality(h.group_level)) +
                      1;
      if (factor > (uint64_t{1} << 62) / std::max<uint64_t>(card, 1)) {
        return Status::NotSupported(
            "group-by space exceeds 2^62 coordinates; no such schema is "
            "supported by the engine");
      }
      factor *= card;
      comp.grouped.push_back(&h);
    }
    if (comp.grouped.size() > kMaxGroupLevels) {
      return Status::NotSupported("group-by sets beyond 16 levels");
    }
    // Kernel selection. The fused dense kernels apply when the mixed-radix
    // key space fits kDenseKeyLimit (the reject-bit encoding and the dense
    // key→group array both require it) and the dense array is not large
    // relative to the scan (clearing key_space slots per morsel must stay
    // negligible next to visiting the rows). Both inputs are properties of
    // the query and data alone — never of the SIMD tier, thread count or
    // batch — so the kernel choice cannot break the bit-identical
    // determinism contract.
    const uint64_t key_space = factor + 1;
    comp.fused = key_space <= kDenseKeyLimit &&
                 static_cast<int64_t>(key_space) <=
                     std::max<int64_t>(int64_t{4096}, rows);
    if (!comp.fused) continue;
    comp.args.key_space = static_cast<uint32_t>(key_space);
    for (HierScanPlan* h : comp.needed) {
      const LaneKey key{h->pass != nullptr ? h->pass->data() : nullptr,
                        h->grouped ? h->group_code().data() : nullptr,
                        static_cast<uint32_t>(h->radix), h->code_domain};
      const int lane = intern(lane_keys, key);
      if (lane == static_cast<int>(lanes.size())) {
        lanes.push_back(BuildLane(key.pass, key.group, key.radix, key.domain));
        exec->setup_entries += key.domain;
      }
      comp.args.columns.push_back(KernelColumn{h->codes, lanes[lane].get()});
      if (h->grouped) {
        comp.args.groups.push_back(KernelGroup{
            static_cast<uint32_t>(h->radix),
            static_cast<uint32_t>(
                h->hierarchy->LevelCardinality(h->group_level)) +
                1u});
      }
    }
    comp.args.measures = consumers[c].measures;
  }

  bool any_fused = false;
  for (const Compiled& comp : compiled) any_fused |= comp.fused;
  FusedScanFn fused_fn = nullptr;
  if (any_fused) {
    exec->fused = true;
    exec->simd = ActiveSimdLevel();
    fused_fn = GetFusedScanKernel(exec->simd);
  }

  // Shared-selection setup for a predicated batch: the columns the common
  // conjunction tests, plus dedup lists of the code and measure sources the
  // compacted consumers read.
  struct SelColumn {
    const int32_t* codes = nullptr;  // absolute source
    const uint8_t* pass = nullptr;
  };
  std::vector<SelColumn> sel_columns;
  if (num_consumers > 1 && any_fused) {
    for (HierScanPlan& h : consumers[0].hiers) {
      if (h.pass != nullptr) {
        sel_columns.push_back(SelColumn{h.codes, h.pass->data()});
      }
    }
  }
  const bool compact = !sel_columns.empty();
  std::vector<const int32_t*> code_sources;
  std::vector<const double*> msources;
  if (compact) {
    for (Compiled& comp : compiled) {
      if (!comp.fused) continue;
      for (const KernelColumn& col : comp.args.columns) {
        comp.code_of.push_back(intern(code_sources, col.codes32));
      }
      for (const ScanMeasure& km : comp.args.measures) {
        comp.msource_of.push_back(
            km.source != nullptr ? intern(msources, km.source) : -1);
      }
    }
  }

  const int64_t num_morsels =
      rows <= 0 ? 0 : (rows + kMorselRows - 1) / kMorselRows;

  // Row runs the scan can pass: for a fact scan anchored at row 0, those of
  // consumer 0's predicated column with the longest clustered prefix (the
  // shared conjunction makes them right for every consumer); otherwise the
  // whole scan.
  std::vector<RowRange> runs{RowRange{begin, end}};
  const std::vector<ClusteredPrefix>* clustered =
      num_consumers > 0 ? consumers[0].clustered : nullptr;
  if (clustered != nullptr && begin == 0) {
    const HierScanPlan* best = nullptr;
    for (const HierScanPlan& h : consumers[0].hiers) {
      if (h.pass == nullptr) continue;
      if (best == nullptr || (*clustered)[h.fact_dim].rows >
                                 (*clustered)[best->fact_dim].rows) {
        best = &h;
      }
    }
    if (best != nullptr) {
      runs = PassingRowRuns((*clustered)[best->fact_dim], *best->pass, end);
    }
  }
  // Each morsel is scanned over one range, from its first to its last row a
  // run covers; a morsel no run reaches is skipped.
  std::vector<RowRange> work;
  work.reserve(num_morsels);
  size_t run = 0;
  for (int64_t m = 0; m < num_morsels; ++m) {
    const int64_t mbegin = begin + m * kMorselRows;
    const int64_t mend = std::min(end, mbegin + kMorselRows);
    while (run < runs.size() && runs[run].end <= mbegin) ++run;
    if (run == runs.size() || runs[run].begin >= mend) continue;
    size_t last = run;
    while (last + 1 < runs.size() && runs[last + 1].begin < mend) ++last;
    work.push_back(RowRange{std::max(mbegin, runs[run].begin),
                            std::min(mend, runs[last].end)});
    run = last;
  }
  exec->scanned = work.size();
  exec->skipped = static_cast<uint64_t>(num_morsels) - work.size();

  auto make_state = [](const Compiled& comp, const ScanConsumer& consumer) {
    AggState state;
    state.out_coords.resize(comp.grouped.size());
    for (const ScanMeasure& m : consumer.measures) {
      state.cols.emplace_back().op = m.op;
    }
    return state;
  };
  // One partial state per (consumer, surviving morsel), filled by whichever
  // pool participant claims the morsel.
  std::vector<std::vector<AggState>> partials(num_consumers);
  for (int c = 0; c < num_consumers; ++c) {
    partials[c].reserve(work.size());
    for (size_t i = 0; i < work.size(); ++i) {
      partials[c].push_back(make_state(compiled[c], consumers[c]));
    }
  }

  if (!work.empty()) {
    auto task = [&](int64_t i) -> Status {
      const int64_t mbegin = work[i].begin;
      const int64_t mend = work[i].end;
      const int64_t n = mend - mbegin;
      // The shared conjunction, tested once: `sel` holds the morsel-relative
      // indices of passing rows, in order. Everything a compacted consumer
      // reads is then gathered down to those rows once.
      std::vector<std::vector<int32_t>> ccodes;
      std::vector<std::vector<double>> cmeas;
      int64_t n_pass = 0;
      if (compact) {
        // Default-initialized: no memset of a buffer about to be written.
        std::unique_ptr<int32_t[]> sel(new int32_t[static_cast<size_t>(n)]);
        int32_t* out = sel.get();
        if (sel_columns.size() == 1) {
          // The common shape (one predicated hierarchy): a tight two-array
          // loop the compiler can keep branch-cheap.
          const uint8_t* pass = sel_columns[0].pass;
          const int32_t* codes = sel_columns[0].codes + mbegin;
          for (int64_t r = 0; r < n; ++r) {
            if (pass[codes[r]]) out[n_pass++] = static_cast<int32_t>(r);
          }
        } else {
          for (int64_t r = 0; r < n; ++r) {
            bool ok = true;
            for (const SelColumn& sc : sel_columns) {
              if (!sc.pass[sc.codes[mbegin + r]]) {
                ok = false;
                break;
              }
            }
            if (ok) out[n_pass++] = static_cast<int32_t>(r);
          }
        }
        const size_t np = static_cast<size_t>(n_pass);
        ccodes.resize(code_sources.size());
        for (size_t d = 0; d < code_sources.size(); ++d) {
          ccodes[d].resize(np);
          for (size_t k = 0; k < np; ++k) {
            ccodes[d][k] = code_sources[d][mbegin + sel[k]];
          }
        }
        cmeas.resize(msources.size());
        for (size_t d = 0; d < msources.size(); ++d) {
          cmeas[d].resize(np);
          for (size_t k = 0; k < np; ++k) {
            cmeas[d][k] = msources[d][mbegin + sel[k]];
          }
        }
      }
      for (int c = 0; c < num_consumers; ++c) {
        const Compiled& comp = compiled[c];
        if (!comp.fused) {
          AggregateRange(mbegin, mend, comp.needed, comp.grouped,
                         consumers[c].measures, &partials[c][i]);
        } else if (!compact) {
          fused_fn(comp.args, mbegin, mend, &partials[c][i]);
        } else {
          if (n_pass > 0) {
            FusedScanArgs args = comp.args;
            for (size_t j = 0; j < args.columns.size(); ++j) {
              args.columns[j].codes32 = ccodes[comp.code_of[j]].data();
            }
            for (size_t m = 0; m < args.measures.size(); ++m) {
              if (comp.msource_of[m] >= 0) {
                args.measures[m].source = cmeas[comp.msource_of[m]].data();
              }
            }
            fused_fn(args, 0, n_pass, &partials[c][i]);
          }
          if (c == 0) {
            // Selectivity truth: the shared test visited every row; the
            // kernel only saw the survivors.
            partials[0][i].rows_visited += n - n_pass;
            partials[0][i].rows_passed = n_pass;
          }
        }
      }
      return Status::OK();
    };
    if (exec->pool != nullptr) {
      ASSESS_RETURN_NOT_OK(exec->pool->RunMorsels(
          static_cast<int64_t>(work.size()), exec->max_threads, task));
    } else {
      for (size_t i = 0; i < work.size(); ++i) {
        ASSESS_RETURN_NOT_OK(task(static_cast<int64_t>(i)));
      }
    }
  }
  // Selectivity accounting from consumer 0: the gather is shared, so the
  // scan visits each surviving row once regardless of consumer count.
  if (num_consumers > 0) {
    for (const AggState& partial : partials[0]) {
      exec->rows_visited += partial.rows_visited;
      exec->rows_passed += partial.rows_passed;
    }
  }
  CountKernelDispatch(*exec);

  std::vector<Cube> out;
  out.reserve(num_consumers);
  for (int c = 0; c < num_consumers; ++c) {
    const Compiled& comp = compiled[c];
    // Deterministic merge: always in morsel index order. A single-morsel
    // scan adopts its partial unchanged, which also keeps sub-morsel scans
    // bit-identical to the pre-morsel serial engine.
    AggState result_state;
    if (work.size() == 1) {
      result_state = std::move(partials[c][0]);
    } else {
      result_state = make_state(comp, consumers[c]);
      for (const AggState& partial : partials[c]) {
        MergeAggStates(comp.grouped, partial, &result_state);
      }
    }
    std::vector<std::vector<double>> values;
    for (agg::Column& col : result_state.cols) {
      values.push_back(agg::Final(col));
    }
    std::vector<LevelRef> out_levels;
    out_levels.reserve(comp.grouped.size());
    for (HierScanPlan* h : comp.grouped) {
      out_levels.push_back(LevelRef{h->hierarchy, h->group_level});
    }
    out.push_back(Cube::FromColumns(std::move(out_levels),
                                    std::move(result_state.out_coords),
                                    consumers[c].measure_names,
                                    std::move(values)));
  }
  return out;
}

// Splits `predicates` by hierarchy, rejecting unknown hierarchies.
Result<std::vector<std::vector<Predicate>>> PartitionPredicates(
    const CubeSchema& schema, const std::vector<Predicate>& predicates) {
  std::vector<std::vector<Predicate>> preds(schema.hierarchy_count());
  for (const Predicate& p : predicates) {
    if (p.hierarchy < 0 || p.hierarchy >= schema.hierarchy_count()) {
      return Status::InvalidArgument("predicate on unknown hierarchy");
    }
    preds[p.hierarchy].push_back(p);
  }
  return preds;
}

// Pass flags over the dimension rows of each hierarchy of `bound` for the
// conjunction `predicates` (null where no predicate applies): the fact
// scans' predicate, compiled once per scan.
Result<std::vector<PassFlags>> FlagDimensionRows(
    const BoundCube& bound, const std::vector<Predicate>& predicates) {
  const CubeSchema& schema = bound.schema();
  ASSESS_ASSIGN_OR_RETURN(auto preds, PartitionPredicates(schema, predicates));
  std::vector<PassFlags> flags(schema.hierarchy_count());
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    if (preds[h].empty()) continue;
    ASSESS_ASSIGN_OR_RETURN(std::vector<uint8_t> rows,
                            BuildDimensionRowFlags(bound.dimension(h),
                                                   preds[h]));
    flags[h] = std::make_shared<const std::vector<uint8_t>>(std::move(rows));
  }
  return flags;
}

// The one fact-scan plan builder (solo gets, delta merges and every MQO
// consumer): a plan per hierarchy `group_by` groups or `flags` (from
// FlagDimensionRows, or empty for no predicate) tests and per measure in
// `measures`, over the rows `snap` pins. Reads the int32 FK columns and
// attaches the snapshot's row-range index. The plans hold `flags`, so the
// consumers of one batch share them.
ScanConsumer PlanFactScan(const BoundCube& bound, const FactSnapshot& snap,
                          const GroupBySet& group_by,
                          const std::vector<PassFlags>& flags,
                          const std::vector<int>& measures) {
  const CubeSchema& schema = bound.schema();
  ScanConsumer consumer;
  consumer.clustered = snap.clustered.get();
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    const bool grouped = group_by.HasHierarchy(h);
    PassFlags pass = flags.empty() ? nullptr : flags[static_cast<size_t>(h)];
    if (!grouped && pass == nullptr) continue;
    const DimensionTable& dim = bound.dimension(h);
    HierScanPlan plan;
    plan.hierarchy = schema.hierarchy_ptr(h);
    plan.grouped = grouped;
    plan.codes = snap.fk[h];
    plan.code_domain = dim.NumRows();
    plan.fact_dim = h;
    if (grouped) {
      plan.group_level = group_by.LevelOf(h);
      plan.external_group_code = &dim.level_column(plan.group_level);
    }
    plan.pass = std::move(pass);
    consumer.hiers.push_back(std::move(plan));
  }
  for (int m : measures) {
    const MeasureDef& def = schema.measure(m);
    consumer.measures.push_back(ScanMeasure{snap.measures[m], def.op});
    consumer.measure_names.push_back(def.name);
  }
  return consumer;
}

// Plans answering `query` by re-aggregating `data`, a selection-free-or-
// weaker result pre-aggregated at `data_group_by` (a cache entry or a
// materialized view). `predicates` are the ones the source has not already
// applied. Feasibility (level reachability, measures with an
// agg::RollupOp) must have been established by EntryAnswersQuery.
Result<ScanConsumer> PlanRollupScan(const CubeSchema& schema,
                                    const CubeQuery& query,
                                    const std::vector<Predicate>& predicates,
                                    const Cube& data,
                                    const GroupBySet& data_group_by) {
  ASSESS_ASSIGN_OR_RETURN(auto preds, PartitionPredicates(schema, predicates));
  ScanConsumer consumer;
  int data_pos = 0;
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    bool in_data = data_group_by.HasHierarchy(h);
    int pos = in_data ? data_pos++ : -1;
    bool grouped = query.group_by.HasHierarchy(h);
    if (!grouped && preds[h].empty()) continue;
    if (!in_data) {
      return Status::Internal("rollup source lacks a needed hierarchy");
    }
    const Hierarchy& hier = schema.hierarchy(h);
    int data_level = data_group_by.LevelOf(h);
    HierScanPlan plan;
    plan.hierarchy = schema.hierarchy_ptr(h);
    plan.grouped = grouped;
    plan.codes = data.coord_column(pos).data();
    plan.code_domain = hier.LevelCardinality(data_level);
    if (grouped) {
      plan.group_level = query.group_by.LevelOf(h);
      int32_t card = hier.LevelCardinality(data_level);
      plan.owned_group_code.resize(card);
      for (MemberId m = 0; m < card; ++m) {
        plan.owned_group_code[m] =
            hier.RollUpMember(data_level, m, plan.group_level);
      }
    }
    if (!preds[h].empty()) {
      ASSESS_ASSIGN_OR_RETURN(
          std::vector<uint8_t> pass,
          BuildConjunctionFlags(hier, preds[h], data_level));
      plan.pass = std::make_shared<const std::vector<uint8_t>>(std::move(pass));
    }
    consumer.hiers.push_back(std::move(plan));
  }
  for (int m : query.measures) {
    const MeasureDef& def = schema.measure(m);
    ASSESS_ASSIGN_OR_RETURN(int src, data.MeasureIndex(def.name));
    const std::optional<AggOp> op = agg::RollupOp(def.op);
    if (!op) return Status::Internal("avg does not re-aggregate");
    consumer.measures.push_back(
        ScanMeasure{data.measure_column(src).data(), *op});
    consumer.measure_names.push_back(def.name);
  }
  return consumer;
}

// Copies `cached` with its measure columns selected (by schema measure
// name) in the order `measure_ids` requests — the projection that maps a
// canonically stored cache entry back to the caller's measure list.
// Column copies keep values bit-identical to the originally computed cube.
Result<Cube> ProjectMeasures(const Cube& cached, const CubeSchema& schema,
                             const std::vector<int>& measure_ids) {
  std::vector<LevelRef> levels = cached.levels();
  std::vector<std::vector<MemberId>> coords;
  coords.reserve(levels.size());
  for (int i = 0; i < cached.level_count(); ++i) {
    coords.push_back(cached.coord_column(i));
  }
  std::vector<std::string> names;
  std::vector<std::vector<double>> columns;
  names.reserve(measure_ids.size());
  columns.reserve(measure_ids.size());
  for (int m : measure_ids) {
    const std::string& name = schema.measure(m).name;
    ASSESS_ASSIGN_OR_RETURN(int idx, cached.MeasureIndex(name));
    names.push_back(name);
    columns.push_back(cached.measure_column(idx));
  }
  return Cube::FromColumns(std::move(levels), std::move(coords),
                           std::move(names), std::move(columns));
}

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kExactHit:
      return "exact_hit";
    case CacheOutcome::kSubsumptionHit:
      return "subsumption_hit";
  }
  return "unknown";
}

}  // namespace

StarQueryEngine::StarQueryEngine(const StarDatabase* db,
                                 const EngineOptions& options)
    : db_(db),
      use_views_(options.use_views),
      pool_(options.pool ? options.pool : TaskPool::Shared()),
      profiler_(options.profiler) {
  // Default parallelism comes from the pool, not the hardware: inside
  // assessd many sessions share one pool, and each must size itself as one
  // tenant of that pool rather than as the machine's sole owner.
  int forced = ForcedThreadsFromEnv();
  threads_ = forced > 0            ? forced
             : options.threads > 0 ? options.threads
                                   : std::max(1, pool_->parallelism());
  if (options.use_result_cache) {
    cache_ = options.shared_cache
                 ? options.shared_cache
                 : std::make_shared<CubeResultCache>(options.cache);
  }
}

StarQueryEngine::StarQueryEngine(const StarDatabase* db, bool use_views,
                                 int threads)
    : db_(db), use_views_(use_views), pool_(TaskPool::Shared()) {
  int forced = ForcedThreadsFromEnv();
  threads_ = forced > 0 ? forced : std::max(1, threads);
}

Result<std::vector<Cube>> StarQueryEngine::Scan(
    Span& span, int64_t begin, int64_t end,
    std::vector<ScanConsumer>* consumers) const {
  MorselExec exec{pool_.get(), threads_};
  Result<std::vector<Cube>> result =
      ScanConsumers(begin, end, *consumers, &exec);
  if (exec.scanned != 0 || exec.skipped != 0 || exec.setup_entries != 0) {
    const auto visited = static_cast<uint64_t>(exec.rows_visited);
    const auto passed = static_cast<uint64_t>(exec.rows_passed);
    const auto setup = static_cast<uint64_t>(exec.setup_entries);
    morsels_scanned_.fetch_add(exec.scanned, std::memory_order_relaxed);
    morsels_skipped_.fetch_add(exec.skipped, std::memory_order_relaxed);
    rows_visited_.fetch_add(visited, std::memory_order_relaxed);
    rows_passed_.fetch_add(passed, std::memory_order_relaxed);
    setup_entries_.fetch_add(setup, std::memory_order_relaxed);
    if (pool_) {
      pool_->AddScanCounts(exec.scanned, exec.skipped, visited, passed, setup);
    }
  }
  if (span.active()) {
    span.AddInt("morsels_scanned", static_cast<int64_t>(exec.scanned));
    span.AddInt("morsels_skipped", static_cast<int64_t>(exec.skipped));
  }
  AddKernelSpanAttrs(span, exec);
  return result;
}

Result<Cube> StarQueryEngine::ScanOne(Span& span, int64_t begin, int64_t end,
                                      ScanConsumer consumer) const {
  std::vector<ScanConsumer> consumers;
  consumers.push_back(std::move(consumer));
  ASSESS_ASSIGN_OR_RETURN(std::vector<Cube> cubes,
                          Scan(span, begin, end, &consumers));
  return std::move(cubes[0]);
}

Result<Cube> StarQueryEngine::Execute(const CubeQuery& query) const {
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound, db_->Find(query.cube_name));
  return ExecuteInternal(*bound, query);
}

Result<Cube> StarQueryEngine::ExecuteInternal(const BoundCube& bound,
                                              const CubeQuery& query) const {
  Span span("engine.get");
  if (span.active()) span.AddString("cube", query.cube_name);
  WorkloadProfiler* profiler =
      profiler_ != nullptr && profiler_->enabled() ? profiler_ : nullptr;
  Stopwatch watch;
  std::optional<CanonicalQuery> canon;
  Result<Cube> result =
      ExecuteGet(bound, query, profiler != nullptr ? &canon : nullptr);
  if (span.active()) {
    span.AddString("outcome", CacheOutcomeName(last_cache_outcome_));
    if (result.ok()) span.AddInt("rows", result->NumRows());
  }
  if (profiler != nullptr && result.ok()) {
    const double ms = watch.ElapsedMillis();
    const uint64_t seen = profiler->RecordQuery(
        bound.schema(), canon ? std::move(*canon) : CanonicalizeQuery(query),
        last_cache_outcome_, ms);
    if (span.active() && seen > 0) {
      span.AddInt("seen", static_cast<int64_t>(seen));
    }
  }
  return result;
}

Result<Cube> StarQueryEngine::ExecuteGet(
    const BoundCube& bound, const CubeQuery& query,
    std::optional<CanonicalQuery>* canon_out) const {
  ASSESS_FAILPOINT("storage.group_by");
  last_used_view_ = false;
  last_cache_outcome_ =
      cache_ != nullptr ? CacheOutcome::kMiss : CacheOutcome::kBypass;
  // Admission: capture the snapshot the whole get answers at. Cache entries
  // and views are stamped with the epoch they aggregate, so only sources of
  // byte-identical table contents answer, and the fact scan below reads
  // exactly this prefix.
  FactSnapshot snap = bound.facts().Snapshot();
  if (cache_ == nullptr && !use_views_) {
    return ExecuteUncached(bound, query, snap);
  }
  const CubeSchema& schema = bound.schema();
  for (const Predicate& p : query.predicates) {
    if (p.hierarchy < 0 || p.hierarchy >= schema.hierarchy_count()) {
      // Let the fact scan produce its usual diagnostic.
      return ExecuteUncached(bound, query, snap);
    }
  }
  CanonicalQuery canon = CanonicalizeQuery(query);
  canon.epoch = snap.epoch;

  // Finer aggregates answering the get, searched in order: an identical
  // cached result, the smallest answering cache entry, the smallest
  // answering view; else the fact scan.
  std::string key;
  std::shared_ptr<const CubeEntry> cached;
  std::shared_ptr<const std::vector<CubeEntry>> views;
  const CubeEntry* source = nullptr;
  if (cache_ != nullptr) {
    key = FingerprintKey(canon);
    if (std::shared_ptr<const CubeEntry> hit = cache_->FindExact(key)) {
      last_cache_outcome_ = CacheOutcome::kExactHit;
      if (canon_out != nullptr) *canon_out = std::move(canon);
      return ProjectMeasures(hit->cube, schema, query.measures);
    }
    cached = cache_->FindSubsuming(schema, canon);
    if (cached) {
      source = cached.get();
      last_cache_outcome_ = CacheOutcome::kSubsumptionHit;
    }
  }
  if (source == nullptr && use_views_) {
    views = bound.views_snapshot();
    source = SmallestAnsweringEntry(schema, canon, *views);
    last_used_view_ = source != nullptr;
  }

  Cube cube;
  if (source != nullptr) {
    // Re-aggregate the source client-side, applying only the predicates it
    // has not already applied.
    const std::vector<std::string>& applied = source->query.predicate_keys;
    std::vector<Predicate> extra;
    for (size_t i = 0; i < canon.predicates.size(); ++i) {
      if (!std::binary_search(applied.begin(), applied.end(),
                              canon.predicate_keys[i])) {
        extra.push_back(canon.predicates[i]);
      }
    }
    Span span("engine.rollup");
    if (span.active()) {
      span.AddString("source", last_used_view_ ? "view" : "cache");
      span.AddInt("source_rows", source->cube.NumRows());
      span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
    }
    ASSESS_ASSIGN_OR_RETURN(
        ScanConsumer consumer,
        PlanRollupScan(schema, query, extra, source->cube,
                       source->query.group_by));
    ASSESS_ASSIGN_OR_RETURN(
        cube, ScanOne(span, 0, source->cube.NumRows(), std::move(consumer)));
  } else {
    ASSESS_ASSIGN_OR_RETURN(cube, ExecuteUncached(bound, query, snap));
  }
  if (canon_out != nullptr) *canon_out = canon;
  if (cache_ != nullptr) cache_->Insert(key, std::move(canon), cube);
  return cube;
}

Result<Cube> StarQueryEngine::ExecuteUncached(const BoundCube& bound,
                                              const CubeQuery& query,
                                              const FactSnapshot& snap) const {
  ASSESS_FAILPOINT("storage.scan");
  Span span("engine.scan");
  if (span.active()) {
    span.AddString("source", "fact");
    span.AddInt("rows", snap.rows);
    span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
  }
  ASSESS_ASSIGN_OR_RETURN(std::vector<PassFlags> flags,
                          FlagDimensionRows(bound, query.predicates));
  return ScanOne(span, 0, snap.rows,
                 PlanFactScan(bound, snap, query.group_by, flags,
                              query.measures));
}

Result<Cube> StarQueryEngine::AggregateFactRange(const BoundCube& bound,
                                                 const GroupBySet& group_by,
                                                 int64_t from,
                                                 int64_t to) const {
  const CubeSchema& schema = bound.schema();
  FactSnapshot snap = bound.facts().Snapshot();
  if (from < 0 || to < from || to > snap.rows) {
    return Status::InvalidArgument(
        "fact range [" + std::to_string(from) + ", " + std::to_string(to) +
        ") is outside the committed prefix of '" + bound.facts().name() +
        "' (" + std::to_string(snap.rows) + " rows)");
  }
  Span span("engine.delta_scan");
  if (span.active()) {
    span.AddString("source", "fact_delta");
    span.AddInt("rows", to - from);
    span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
  }
  std::vector<int> measures(schema.measure_count());
  std::iota(measures.begin(), measures.end(), 0);
  return ScanOne(span, from, to,
                 PlanFactScan(bound, snap, group_by, {}, measures));
}

Result<std::vector<Cube>> StarQueryEngine::ExecuteSharedScan(
    const std::vector<CubeQuery>& queries, uint64_t pinned_epoch) const {
  if (queries.empty()) return std::vector<Cube>();
  ASSESS_FAILPOINT("mqo.shared_scan");
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound,
                          db_->Find(queries[0].cube_name));
  const CubeSchema& schema = bound->schema();

  // Validate the group contract: one cube, one canonical predicate
  // conjunction. Violations are collector bugs, not user errors.
  std::vector<CanonicalQuery> canons;
  canons.reserve(queries.size());
  std::vector<std::string> shared_pred_keys;
  for (size_t i = 0; i < queries.size(); ++i) {
    const CubeQuery& q = queries[i];
    if (q.cube_name != queries[0].cube_name) {
      return Status::Internal("shared scan mixes cubes");
    }
    ASSESS_RETURN_NOT_OK(PartitionPredicates(schema, q.predicates).status());
    CanonicalQuery canon = CanonicalizeQuery(q);
    if (i == 0) {
      shared_pred_keys = canon.predicate_keys;
    } else if (canon.predicate_keys != shared_pred_keys) {
      return Status::Internal("shared scan mixes predicate conjunctions");
    }
    canons.push_back(std::move(canon));
  }

  const FactTable& facts = bound->facts();
  FactSnapshot snap = facts.Snapshot();
  if (pinned_epoch != 0 && snap.epoch != pinned_epoch) {
    return Status::Unavailable(
        "shared scan epoch changed (an ingest raced the batch)");
  }

  Span span("engine.shared_scan");
  if (span.active()) {
    span.AddString("cube", queries[0].cube_name);
    span.AddInt("queries", static_cast<int64_t>(queries.size()));
    span.AddInt("rows", snap.rows);
    span.AddInt("epoch", static_cast<int64_t>(snap.epoch));
  }

  // One consumer per query, all holding the flags of the one conjunction,
  // built once. Views are deliberately bypassed: every consumer must
  // aggregate the same source rows for the shared gather to be the one
  // scan they all ride.
  ASSESS_ASSIGN_OR_RETURN(std::vector<PassFlags> flags,
                          FlagDimensionRows(*bound, queries[0].predicates));
  std::vector<ScanConsumer> consumers;
  consumers.reserve(queries.size());
  for (const CubeQuery& query : queries) {
    consumers.push_back(PlanFactScan(*bound, snap, query.group_by, flags,
                                     query.measures));
  }
  ASSESS_ASSIGN_OR_RETURN(std::vector<Cube> cubes,
                          Scan(span, 0, snap.rows, &consumers));

  // Seed the result cache: one insert per consumer, keyed exactly as the
  // solo path would key it, so batch members executing right after the
  // shared scan take exact hits.
  if (cache_ != nullptr) {
    for (size_t i = 0; i < cubes.size(); ++i) {
      canons[i].epoch = snap.epoch;
      std::string key = FingerprintKey(canons[i]);
      cache_->Insert(key, std::move(canons[i]), cubes[i]);
    }
  }
  return cubes;
}

Result<Cube> StarQueryEngine::ExecuteJoined(
    const CubeQuery& target, const CubeQuery& benchmark,
    const std::vector<std::string>& join_levels, bool left_outer) const {
  ASSESS_FAILPOINT("storage.join");
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bt, db_->Find(target.cube_name));
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bb, db_->Find(benchmark.cube_name));
  Span span("engine.join");
  ASSESS_ASSIGN_OR_RETURN(Cube left, ExecuteInternal(*bt, target));
  ASSESS_ASSIGN_OR_RETURN(Cube right, ExecuteInternal(*bb, benchmark));
  std::string prefix = benchmark.alias.empty() ? "benchmark" : benchmark.alias;
  return JoinCubes(left, right, join_levels, prefix, left_outer);
}

Result<Cube> StarQueryEngine::ExecuteConcatJoined(
    const CubeQuery& target, const CubeQuery& benchmark,
    const std::vector<std::string>& join_levels,
    const std::string& order_level, int expected,
    const std::vector<std::vector<std::string>>& slot_names,
    bool require_complete) const {
  ASSESS_FAILPOINT("storage.join");
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bt, db_->Find(target.cube_name));
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bb, db_->Find(benchmark.cube_name));
  Span span("engine.join");
  ASSESS_ASSIGN_OR_RETURN(Cube left, ExecuteInternal(*bt, target));
  ASSESS_ASSIGN_OR_RETURN(Cube right, ExecuteInternal(*bb, benchmark));
  return ConcatJoinCubes(left, right, join_levels, order_level, expected,
                         slot_names, require_complete);
}

Result<Cube> StarQueryEngine::ExecutePivoted(const CubeQuery& query_all,
                                             const PivotSpec& spec) const {
  ASSESS_ASSIGN_OR_RETURN(const BoundCube* bound,
                          db_->Find(query_all.cube_name));
  Span span("engine.pivot");
  ASSESS_ASSIGN_OR_RETURN(Cube all, ExecuteInternal(*bound, query_all));
  return PivotCube(all, spec.level, spec.reference_member, spec.other_members,
                   spec.measure_names, spec.require_complete);
}

Result<int64_t> StarQueryEngine::MaterializeView(
    StarDatabase* db, const std::string& cube_name,
    const std::vector<std::string>& level_names,
    const std::string& /*view_name*/) const {
  ASSESS_ASSIGN_OR_RETURN(BoundCube* bound, db->FindMutable(cube_name));
  const CubeSchema& schema = bound->schema();
  CubeQuery query;
  query.cube_name = cube_name;
  ASSESS_ASSIGN_OR_RETURN(query.group_by,
                          GroupBySet::FromLevelNames(schema, level_names));
  for (int m = 0; m < schema.measure_count(); ++m) query.measures.push_back(m);

  // Build the view from base data only (never from another view) — the
  // morsel merge keeps it deterministic — stamped with the epoch it
  // aggregates.
  FactSnapshot snap = bound->facts().Snapshot();
  ASSESS_ASSIGN_OR_RETURN(Cube data, ExecuteUncached(*bound, query, snap));
  const int64_t rows = data.NumRows();
  CanonicalQuery view = CanonicalizeQuery(query);
  view.epoch = snap.epoch;
  bound->AddView(CubeEntry{std::move(view), std::move(data)});
  return rows;
}

}  // namespace assess
