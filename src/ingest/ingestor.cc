#include "ingest/ingestor.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "ingest/row_codec.h"
#include "olap/cube.h"
#include "storage/star_query_engine.h"

namespace assess {

namespace {

/// What one input column (CSV header cell / JSONL key) feeds.
struct ColumnBinding {
  enum Kind { kDimLevel, kMeasure };
  Kind kind = kDimLevel;
  int hierarchy = -1;
  int level = -1;
  int measure = -1;
};

/// Merges a delta aggregation (the appended rows, grouped at the view's
/// group-by set) into a copy of the view's cube: matching coordinates
/// combine per the schema operator, new coordinates append. The index is
/// built over the *old* cube only — delta coordinates are unique within the
/// delta (it is itself grouped), so appended rows never need indexing.
Result<Cube> MergeViewDelta(const CubeSchema& schema, const Cube& view,
                            const Cube& delta) {
  Cube merged = view;
  const int64_t delta_rows = delta.NumRows();
  if (delta_rows == 0) return merged;

  const int levels = merged.level_count();
  const int num_measures = merged.measure_count();
  std::vector<AggOp> ops(num_measures);
  std::vector<int> delta_col(num_measures);
  for (int i = 0; i < num_measures; ++i) {
    ASSESS_ASSIGN_OR_RETURN(int mi,
                            schema.MeasureIndex(merged.measure_name(i)));
    ops[i] = schema.measure(mi).op;
    ASSESS_ASSIGN_OR_RETURN(delta_col[i],
                            delta.MeasureIndex(merged.measure_name(i)));
  }
  for (int l = 0; l < levels; ++l) {
    if (delta.level_count() <= l ||
        delta.level(l).name() != merged.level(l).name()) {
      return Status::Internal(
          "delta aggregation axes do not match the materialized view");
    }
  }

  std::vector<int> keys(levels);
  std::iota(keys.begin(), keys.end(), 0);
  CoordinateIndex index(view, keys);
  std::vector<MemberId> coords(levels);
  std::vector<double> measures(num_measures);
  for (int64_t r = 0; r < delta_rows; ++r) {
    const std::span<const int32_t> rows = index.Lookup(delta, keys, r);
    if (!rows.empty()) {
      const int64_t row = rows[0];
      for (int i = 0; i < num_measures; ++i) {
        const double d = delta.MeasureAt(r, delta_col[i]);
        const double old = merged.MeasureAt(row, i);
        double v = 0;
        switch (ops[i]) {
          case AggOp::kSum:
          case AggOp::kCount:
            v = old + d;
            break;
          case AggOp::kMin:
            v = std::min(old, d);
            break;
          case AggOp::kMax:
            v = std::max(old, d);
            break;
          case AggOp::kAvg:
            return Status::Internal(
                "avg measures cannot be delta-merged (caller must rebuild)");
        }
        merged.SetMeasure(row, i, v);
      }
    } else {
      for (int l = 0; l < levels; ++l) coords[l] = delta.CoordAt(r, l);
      for (int i = 0; i < num_measures; ++i) {
        measures[i] = delta.MeasureAt(r, delta_col[i]);
      }
      merged.AddRow(coords, measures);
    }
  }
  return merged;
}

/// The members one auto-insert request adds to one dimension. They are
/// staged while the request parses and interned only by Commit, so a
/// request that fails leaves none behind.
struct StagedMembers {
  struct Member {
    std::vector<std::string> chain;  // one name per level, finest first
    int64_t line = 0;                // the line that first named it
  };
  std::vector<Member> members;
  /// Finest-level name -> index in `members`; a staged row's FK is the
  /// placeholder -1 - index until Commit patches it.
  std::unordered_map<std::string, int32_t> index;
  /// The roll-up links the staged chains declare: [level] name -> parent.
  std::vector<std::unordered_map<std::string, std::string>> parents;

  /// The placeholder FK the next staged member gets.
  int32_t NextPlaceholder() const {
    return -1 - static_cast<int32_t>(members.size());
  }
  /// Stages the member whose complete chain `level_values` holds.
  void Add(const std::vector<const std::string*>& level_values, int64_t line) {
    std::vector<std::string> chain(level_values.size());
    for (size_t l = 0; l < chain.size(); ++l) chain[l] = *level_values[l];
    for (size_t l = 0; l + 1 < chain.size(); ++l) {
      parents[l].emplace(chain[l], chain[l + 1]);
    }
    index.emplace(chain[0], static_cast<int32_t>(members.size()));
    members.push_back({std::move(chain), line});
  }
};

Status RollUpMismatch(const std::string& member, const std::string& dim,
                      const std::string& level, const std::string& have,
                      const std::string& want) {
  return Status::InvalidArgument("member '" + member + "' of dimension '" +
                                 dim + "' rolls up to '" + have +
                                 "' at level '" + level + "', not '" + want +
                                 "'");
}

/// kInvalidArgument unless every link of `chain` agrees with the parent
/// its member already has in `hier` or, failing that, in `staged`.
Status CheckChain(const Hierarchy& hier, const std::vector<std::string>& chain,
                  const StagedMembers* staged) {
  for (int l = 0; l + 1 < hier.level_count(); ++l) {
    const std::string* have = nullptr;
    const Result<MemberId> code = hier.MemberIdOf(l, chain[l]);
    const MemberId parent =
        code.ok() ? hier.RollUpMember(l, *code, l + 1) : kInvalidMember;
    if (parent != kInvalidMember) {
      have = &hier.MemberName(l + 1, parent);
    } else if (staged != nullptr) {
      auto it = staged->parents[l].find(chain[l]);
      if (it != staged->parents[l].end()) have = &it->second;
    }
    if (have != nullptr && *have != chain[l + 1]) {
      return Status::InvalidArgument(
          "conflicting roll-up: member '" + chain[l] + "' of level '" +
          hier.level_name(l) + "' already rolls up to '" + *have +
          "', not '" + chain[l + 1] + "'");
    }
  }
  return Status::OK();
}

/// Interns the staged members of one dimension and patches their
/// placeholder FKs in `fks`. A member another request interned meanwhile
/// keeps its row. Returns the number of dimension rows added. Caller holds
/// the exclusive schema lock and has checked every chain.
uint64_t InternStaged(DimensionTable* dim, const StagedMembers& staged,
                      std::vector<int32_t>* fks) {
  Hierarchy& hier = dim->mutable_hierarchy();
  const int level_count = hier.level_count();
  std::vector<int32_t> rows(staged.members.size());
  std::vector<MemberId> codes(level_count);
  uint64_t added = 0;
  for (size_t i = 0; i < staged.members.size(); ++i) {
    const std::vector<std::string>& chain = staged.members[i].chain;
    for (int l = 0; l < level_count; ++l) {
      codes[l] = hier.AddMember(l, chain[l]);
    }
    for (int l = 0; l + 1 < level_count; ++l) {
      if (hier.RollUpMember(l, codes[l], l + 1) == kInvalidMember) {
        hier.SetParent(l, codes[l], codes[l + 1]);
      }
    }
    rows[i] = dim->RowOfFinestCode(codes[0]);
    if (rows[i] < 0) {
      dim->AddRow(codes);
      rows[i] = static_cast<int32_t>(dim->NumRows() - 1);
      added += 1;
    }
  }
  for (int32_t& fk : *fks) {
    if (fk < 0) fk = rows[-1 - fk];
  }
  return added;
}

}  // namespace

/// Per-IngestText state: schema bindings, the request's staged rows and
/// members, and the running stats.
struct Ingestor::Run {
  explicit Run(const StarDatabase* db)
      : engine(db, /*use_views=*/false, /*threads=*/1) {}

  BoundCube* bound = nullptr;
  std::string cube_name;
  const CubeSchema* schema = nullptr;
  /// Delta/rebuild aggregation for view maintenance: no views (a view must
  /// never be built from itself), no cache, serial.
  StarQueryEngine engine;

  // Interned column bindings, shared by the CSV header and JSONL keys.
  std::vector<ColumnBinding> bindings;
  std::unordered_map<std::string, int> binding_index;
  std::vector<int> header_bindings;  // CSV: binding per header column

  // The request's accepted rows (column-major, staged until Commit) and the
  // members they add, per hierarchy.
  std::vector<std::vector<int32_t>> fks;
  std::vector<std::vector<double>> measures;
  int64_t pending = 0;
  std::vector<StagedMembers> staged;
  bool has_staged = false;

  // Per-row scratch, sized once.
  std::vector<std::vector<const std::string*>> level_values;  // [h][level]
  std::vector<int32_t> row_fks;
  std::vector<double> row_measures;
  std::vector<char> measure_set;

  bool has_avg_measure = false;
  IngestStats stats;

  // Write-ahead capture (populated only when options_.durability is set):
  // the bound CSV header line and the accepted data lines of the request,
  // newline-joined. Replaying them through a fresh Ingestor reproduces the
  // request bit-for-bit, auto-insert side effects included.
  std::string wal_header;
  std::string wal_lines;
};

Ingestor::Ingestor(StarDatabase* db, std::shared_ptr<CubeResultCache> cache,
                   IngestOptions options)
    : db_(db), cache_(std::move(cache)), options_(options) {}

Result<int> Ingestor::BindColumn(Run* run, const std::string& name) {
  auto it = run->binding_index.find(name);
  if (it != run->binding_index.end()) return it->second;
  const CubeSchema& schema = *run->schema;
  ColumnBinding binding;
  Result<int> h = schema.HierarchyOfLevel(name);
  if (h.ok()) {
    binding.kind = ColumnBinding::kDimLevel;
    binding.hierarchy = *h;
    ASSESS_ASSIGN_OR_RETURN(binding.level,
                            schema.hierarchy(*h).LevelIndex(name));
  } else {
    Result<int> m = schema.MeasureIndex(name);
    if (!m.ok()) {
      return Status::InvalidArgument("unknown column '" + name +
                                     "': not a level or measure of cube '" +
                                     run->cube_name + "'");
    }
    binding.kind = ColumnBinding::kMeasure;
    binding.measure = *m;
  }
  const int idx = static_cast<int>(run->bindings.size());
  run->bindings.push_back(binding);
  run->binding_index.emplace(name, idx);
  return idx;
}

Status Ingestor::BindCsvHeader(Run* run, const std::vector<std::string>& names) {
  run->header_bindings.clear();
  for (const std::string& name : names) {
    ASSESS_ASSIGN_OR_RETURN(int b, BindColumn(run, name));
    if (std::find(run->header_bindings.begin(), run->header_bindings.end(),
                  b) != run->header_bindings.end()) {
      return Status::InvalidArgument("duplicate CSV column '" + name + "'");
    }
    run->header_bindings.push_back(b);
  }
  const CubeSchema& schema = *run->schema;
  auto bound = [&](ColumnBinding::Kind kind, int h, int level, int m) {
    for (int b : run->header_bindings) {
      const ColumnBinding& cb = run->bindings[b];
      if (cb.kind != kind) continue;
      if (kind == ColumnBinding::kDimLevel
              ? (cb.hierarchy == h && cb.level == level)
              : cb.measure == m) {
        return true;
      }
    }
    return false;
  };
  for (int h = 0; h < schema.hierarchy_count(); ++h) {
    if (!bound(ColumnBinding::kDimLevel, h, 0, -1)) {
      return Status::InvalidArgument(
          "CSV header is missing key column '" +
          schema.hierarchy(h).level_name(0) + "' of dimension '" +
          schema.hierarchy(h).name() + "'");
    }
  }
  for (int m = 0; m < schema.measure_count(); ++m) {
    if (!bound(ColumnBinding::kMeasure, -1, -1, m)) {
      return Status::InvalidArgument("CSV header is missing measure column '" +
                                     schema.measure(m).name + "'");
    }
  }
  return Status::OK();
}

Status Ingestor::ResolveDimension(
    Run* run, int h, const std::vector<const std::string*>& level_values,
    int32_t* fk_out) {
  const std::string& key = *level_values[0];
  {
    std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
    const DimensionTable& dim = run->bound->dimension(h);
    const Hierarchy& hier = dim.hierarchy();
    const Result<MemberId> code = hier.MemberIdOf(0, key);
    const int32_t row = code.ok() ? dim.RowOfFinestCode(*code) : -1;
    if (row >= 0) {
      // Coarser values, when provided, must agree with the stored roll-up.
      for (int l = 1; l < hier.level_count(); ++l) {
        if (level_values[l] == nullptr) continue;
        const std::string& have = hier.MemberName(l, dim.CodeAt(row, l));
        if (have != *level_values[l]) {
          return RollUpMismatch(key, dim.name(), hier.level_name(l), have,
                                *level_values[l]);
        }
      }
      *fk_out = row;
      return Status::OK();
    }
  }
  if (!options_.auto_insert_members) {
    return Status::NotFound("unknown member '" + key + "' of dimension '" +
                            run->bound->dimension(h).name() +
                            "' (auto-insert is off)");
  }
  return ResolveNewMember(run, h, level_values, fk_out);
}

Status Ingestor::ResolveNewMember(
    Run* run, int h, const std::vector<const std::string*>& level_values,
    int32_t* fk_out) {
  const std::string& key = *level_values[0];
  const DimensionTable& dim = run->bound->dimension(h);
  const Hierarchy& hier = dim.hierarchy();
  const int level_count = hier.level_count();
  const StagedMembers& staged = run->staged[h];

  auto it = staged.index.find(key);
  if (it != staged.index.end()) {
    // An earlier row of this request staged the member: coarser values,
    // when provided, must agree with the chain it declared.
    const std::vector<std::string>& chain = staged.members[it->second].chain;
    for (int l = 1; l < level_count; ++l) {
      if (level_values[l] != nullptr && *level_values[l] != chain[l]) {
        return RollUpMismatch(key, dim.name(), hier.level_name(l), chain[l],
                              *level_values[l]);
      }
    }
    *fk_out = -1 - it->second;
    return Status::OK();
  }

  // The whole roll-up chain is needed to link the new member.
  std::vector<std::string> chain(level_count);
  for (int l = 0; l < level_count; ++l) {
    if (level_values[l] == nullptr) {
      return Status::InvalidArgument(
          "auto-insert of member '" + key + "' needs a value for level '" +
          hier.level_name(l) + "' of dimension '" + dim.name() + "'");
    }
    chain[l] = *level_values[l];
  }
  std::shared_lock<std::shared_mutex> lock(db_->schema_mutex());
  ASSESS_RETURN_NOT_OK(CheckChain(hier, chain, &staged));
  *fk_out = staged.NextPlaceholder();
  return Status::OK();
}

Status Ingestor::ProcessRow(Run* run, int64_t line_no,
                            const std::vector<std::string>& fields,
                            const std::vector<int>& field_bindings) {
  // Chaos site: a triggered failpoint rejects this row with its typed
  // error (max_errors applies as usual).
  ASSESS_FAILPOINT("ingest.row");
  const CubeSchema& schema = *run->schema;
  const int hierarchies = schema.hierarchy_count();
  const int num_measures = schema.measure_count();

  for (auto& lv : run->level_values) {
    std::fill(lv.begin(), lv.end(), nullptr);
  }
  std::fill(run->measure_set.begin(), run->measure_set.end(), 0);

  for (size_t i = 0; i < fields.size(); ++i) {
    const ColumnBinding& b = run->bindings[field_bindings[i]];
    if (b.kind == ColumnBinding::kDimLevel) {
      const std::string*& slot = run->level_values[b.hierarchy][b.level];
      if (slot != nullptr) {
        return Status::InvalidArgument(
            "duplicate value for level '" +
            schema.hierarchy(b.hierarchy).level_name(b.level) + "'");
      }
      // Empty fields (and JSONL nulls) mean "not provided".
      if (!fields[i].empty()) slot = &fields[i];
    } else {
      if (run->measure_set[b.measure]) {
        return Status::InvalidArgument("duplicate value for measure '" +
                                       schema.measure(b.measure).name + "'");
      }
      Result<double> v = ParseMeasureValue(fields[i]);
      if (!v.ok()) {
        return v.status().WithContext("measure '" +
                                      schema.measure(b.measure).name + "'");
      }
      run->row_measures[b.measure] = *v;
      run->measure_set[b.measure] = 1;
    }
  }

  for (int h = 0; h < hierarchies; ++h) {
    if (run->level_values[h][0] == nullptr) {
      return Status::InvalidArgument(
          "missing value for key column '" +
          schema.hierarchy(h).level_name(0) + "' of dimension '" +
          schema.hierarchy(h).name() + "'");
    }
  }
  for (int m = 0; m < num_measures; ++m) {
    if (!run->measure_set[m]) {
      return Status::InvalidArgument("missing value for measure '" +
                                     schema.measure(m).name + "'");
    }
  }

  for (int h = 0; h < hierarchies; ++h) {
    ASSESS_RETURN_NOT_OK(ResolveDimension(run, h, run->level_values[h],
                                          &run->row_fks[h]));
  }

  // The row is fully validated and resolved: stage it, with the members it
  // adds. Nothing above mutated the request, so a rejected row leaves no
  // trace.
  for (int h = 0; h < hierarchies; ++h) {
    StagedMembers& staged = run->staged[h];
    if (run->row_fks[h] == staged.NextPlaceholder()) {
      staged.Add(run->level_values[h], line_no);
      run->has_staged = true;
    }
    run->fks[h].push_back(run->row_fks[h]);
  }
  for (int m = 0; m < num_measures; ++m) {
    run->measures[m].push_back(run->row_measures[m]);
  }
  run->pending += 1;
  return Status::OK();
}

Status Ingestor::Commit(Run* run) {
  if (run->pending == 0) return Status::OK();
  // Chaos site: a triggered failpoint fails the request before anything of
  // it publishes.
  ASSESS_FAILPOINT("ingest.commit");

  // One whole commit (append + view maintenance + cache sweep) at a time
  // per cube; queries never wait here — they scan admission snapshots. The
  // schema lock is shared: view maintenance reads dimensions and
  // hierarchies, which a concurrent member insert (exclusive) may not
  // mutate mid-scan.
  std::lock_guard<std::mutex> commit_lock(run->bound->ingest_mutex());
  std::shared_lock<std::shared_mutex> schema_lock(db_->schema_mutex(),
                                                  std::defer_lock);

  FactTable& facts = run->bound->mutable_facts();

  // Write-ahead: the request must be durable before its epoch publishes and
  // any receipt can reach a client. The epoch is computed up front (we hold
  // the cube's ingest mutex, so nobody else can move it) and stamped into
  // the record; a hook failure fails the request with its typed error while
  // the fact table, dimensions, views and cache are exactly as they were.
  const uint64_t commit_epoch = facts.epoch() + 1;
  auto log = [&]() -> Status {
    if (options_.durability == nullptr) return Status::OK();
    IngestCommit commit;
    commit.cube = &run->cube_name;
    commit.epoch = commit_epoch;
    commit.format = options_.format;
    commit.auto_insert = options_.auto_insert_members;
    commit.row_count = static_cast<uint32_t>(run->pending);
    commit.header = &run->wal_header;
    commit.text = &run->wal_lines;
    return options_.durability->OnCommit(commit);
  };
  if (!run->has_staged) {
    schema_lock.lock();
    ASSESS_RETURN_NOT_OK(log());
  } else {
    // New members mutate structures queries index directly, so they are
    // interned under the exclusive schema lock, after the record that
    // re-creates them is logged. A chain that a concurrent request made
    // conflict fails the request before anything is logged.
    std::unique_lock<std::shared_mutex> members_lock(db_->schema_mutex());
    for (size_t h = 0; h < run->staged.size(); ++h) {
      const Hierarchy& hier = run->bound->dimension(h).hierarchy();
      for (const StagedMembers::Member& member : run->staged[h].members) {
        ASSESS_RETURN_NOT_OK(CheckChain(hier, member.chain, nullptr)
                                 .WithContext("line " +
                                              std::to_string(member.line)));
      }
    }
    ASSESS_RETURN_NOT_OK(log());
    for (size_t h = 0; h < run->staged.size(); ++h) {
      if (run->staged[h].members.empty()) continue;
      run->stats.new_members +=
          InternStaged(&run->bound->mutable_dimension(h), run->staged[h],
                       &run->fks[h]);
    }
    members_lock.unlock();
    schema_lock.lock();
  }

  const AppendResult app = facts.AppendBatch(run->fks, run->measures);
  if (app.epoch != commit_epoch) {
    return Status::Internal(
        "ingest epoch moved under the commit lock: logged " +
        std::to_string(commit_epoch) + ", published " +
        std::to_string(app.epoch));
  }

  run->stats.rows_ingested = static_cast<uint64_t>(app.rows);
  run->stats.batches = 1;
  run->stats.epoch = app.epoch;

  // Writes flow through the materialized views. A view at the epoch just
  // before this commit aggregates exactly the rows before the request, so
  // only the appended delta is aggregated and merged in; a view lagging an
  // append that bypassed the ingestor, or any view of a cube with an avg
  // measure (merging it is lossy), is rebuilt from scratch. Until
  // PublishViews lands, queries at the new epoch skip the (lagging) views
  // and scan facts — consistent, just slower.
  std::shared_ptr<const std::vector<CubeEntry>> old_views =
      run->bound->views_snapshot();
  if (!old_views->empty()) {
    const int64_t new_rows = app.first_row + app.rows;
    std::vector<CubeEntry> next;
    next.reserve(old_views->size());
    for (const CubeEntry& view : *old_views) {
      CanonicalQuery query = view.query;
      query.epoch = app.epoch;
      if (view.query.epoch + 1 == app.epoch && !run->has_avg_measure) {
        ASSESS_ASSIGN_OR_RETURN(
            Cube delta, run->engine.AggregateFactRange(
                            *run->bound, query.group_by, app.first_row,
                            new_rows));
        ASSESS_ASSIGN_OR_RETURN(Cube merged,
                                MergeViewDelta(*run->schema, view.cube, delta));
        next.push_back(CubeEntry{std::move(query), std::move(merged)});
        run->stats.mv_incremental_updates += 1;
      } else {
        ASSESS_ASSIGN_OR_RETURN(
            Cube rebuilt, run->engine.AggregateFactRange(
                              *run->bound, query.group_by, 0, new_rows));
        next.push_back(CubeEntry{std::move(query), std::move(rebuilt)});
        run->stats.mv_full_rebuilds += 1;
      }
    }
    run->bound->PublishViews(std::move(next));
  }

  if (cache_ != nullptr) {
    // Epoch keying already makes superseded entries unreachable; the sweep
    // is eager memory reclamation.
    run->stats.cache_invalidations +=
        cache_->InvalidateEpochsBefore(run->cube_name, app.epoch);
  }
  return Status::OK();
}

Status Ingestor::IngestLines(Run* run, std::string_view text) {
  std::vector<std::string> fields;
  std::vector<int> field_bindings;
  std::vector<std::pair<std::string, std::string>> kvs;
  bool have_header = options_.format != IngestFormat::kCsv;
  int64_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    line_no += 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;

    Status st = Status::OK();
    if (options_.format == IngestFormat::kCsv) {
      st = SplitCsvLine(line, &fields);
      if (st.ok() && !have_header) {
        have_header = true;
        st = BindCsvHeader(run, fields);
        if (!st.ok()) {
          // A bad header fails everything — no row is interpretable.
          return st.WithContext("line " + std::to_string(line_no));
        }
        if (options_.durability != nullptr) {
          run->wal_header.assign(line.data(), line.size());
        }
        continue;
      }
      if (st.ok() && fields.size() != run->header_bindings.size()) {
        st = Status::InvalidArgument(
            "expected " + std::to_string(run->header_bindings.size()) +
            " fields per the header, got " + std::to_string(fields.size()));
      }
      if (st.ok()) st = ProcessRow(run, line_no, fields, run->header_bindings);
    } else {
      st = ParseJsonlObject(line, &kvs);
      if (st.ok()) {
        fields.clear();
        field_bindings.clear();
        for (auto& kv : kvs) {
          Result<int> b = BindColumn(run, kv.first);
          if (!b.ok()) {
            st = b.status();
            break;
          }
          field_bindings.push_back(*b);
          fields.push_back(std::move(kv.second));
        }
        if (st.ok()) st = ProcessRow(run, line_no, fields, field_bindings);
      }
    }

    if (!st.ok()) {
      st = st.WithContext("line " + std::to_string(line_no));
      if (static_cast<int64_t>(run->stats.rows_rejected) >=
          options_.max_errors) {
        return st;
      }
      run->stats.rows_rejected += 1;
      continue;
    }
    if (options_.durability != nullptr) {
      // Only *accepted* rows are logged: replay re-ingests exactly what
      // committed, never a rejected line.
      if (!run->wal_lines.empty()) run->wal_lines += '\n';
      run->wal_lines.append(line.data(), line.size());
    }
  }
  return Commit(run);
}

Result<IngestStats> Ingestor::IngestText(std::string_view cube_name,
                                         std::string_view text) {
  ASSESS_ASSIGN_OR_RETURN(BoundCube * bound, db_->FindMutable(cube_name));
  Run run(db_);
  run.bound = bound;
  run.cube_name = std::string(cube_name);
  run.schema = &bound->schema();
  const CubeSchema& schema = *run.schema;
  const int hierarchies = schema.hierarchy_count();
  const int num_measures = schema.measure_count();
  run.fks.resize(hierarchies);
  run.measures.resize(num_measures);
  run.staged.resize(hierarchies);
  run.level_values.resize(hierarchies);
  run.row_fks.resize(hierarchies, 0);
  run.row_measures.resize(num_measures, 0.0);
  run.measure_set.resize(num_measures, 0);
  for (int m = 0; m < num_measures; ++m) {
    if (schema.measure(m).op == AggOp::kAvg) run.has_avg_measure = true;
  }
  for (int h = 0; h < hierarchies; ++h) {
    const int levels = schema.hierarchy(h).level_count();
    run.level_values[h].resize(levels, nullptr);
    run.staged[h].parents.resize(levels);
  }
  run.stats.epoch = bound->facts().epoch();

  Status st = IngestLines(&run, text);
  if (!st.ok()) return st;
  return run.stats;
}

Result<IngestStats> Ingestor::IngestFile(std::string_view cube_name,
                                         const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open ingest file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return IngestText(cube_name, buf.str());
}

}  // namespace assess
