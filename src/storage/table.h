#ifndef ASSESS_STORAGE_TABLE_H_
#define ASSESS_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "olap/hierarchy.h"

namespace assess {

/// \brief The row-range index of one fact FK column: the length of the
/// column's longest non-decreasing prefix and, in ascending code order, each
/// distinct code of that prefix with the first row holding it. Code
/// `codes[i]` occupies prefix rows [first_row[i], first_row[i + 1]) — the
/// last code up to `rows` — so the rows a set of codes can hold are a union
/// of runs computed without reading the column. A table bulk-loaded in
/// date order (the SSB and BUDGET generators) has its whole date column as
/// the prefix; an unordered column's prefix ends after a few rows.
struct ClusteredPrefix {
  int64_t rows = 0;
  std::vector<int32_t> codes;
  std::vector<int64_t> first_row;
};

/// \brief One consistent view of a fact table: the committed row prefix at
/// admission time, its epoch, and raw column pointers valid for the
/// snapshot's lifetime (`bank` pins the storage even if the table grows its
/// arrays afterwards). Queries capture a snapshot once and scan only this
/// prefix, so in-flight queries never observe a partial batch.
struct FactSnapshot {
  int64_t rows = 0;
  /// Publication counter: bumped by every committed mutation, so equal
  /// epochs imply identical table contents — what the result cache keys
  /// entries by.
  uint64_t epoch = 0;
  std::vector<const int32_t*> fk;       // one pointer per dimension
  std::vector<const double*> measures;  // one pointer per measure
  /// The row-range index of every FK column (one per dimension) as of
  /// `rows`: published together with the rows it describes, so a scan
  /// reads it without a lock and its prefixes never exceed `rows`.
  std::shared_ptr<const std::vector<ClusteredPrefix>> clustered;
  std::shared_ptr<const void> bank;  // keepalive for fk/measures pointers
};

/// \brief What one committed append published: the half-open row range
/// [first_row, first_row + rows) and the epoch it became visible at.
struct AppendResult {
  int64_t first_row = 0;
  int64_t rows = 0;
  uint64_t epoch = 0;
};

/// \brief A dimension table of a star schema, bound to one hierarchy.
///
/// Storage is columnar: one MemberId column per hierarchy level, row-aligned.
/// The row index is the dimension key referenced by fact-table foreign keys
/// (the surrogate-key convention of dimensional modeling). Member ids
/// reference the hierarchy's per-level dictionaries, so attribute values are
/// dictionary-encoded exactly once.
///
/// Unlike FactTable, dimension tables have no lock-free append path:
/// growing one (auto-insert during ingest) requires the database's
/// exclusive schema lock, because readers index level columns and the
/// hierarchy dictionaries directly.
class DimensionTable {
 public:
  DimensionTable(std::string name, std::shared_ptr<Hierarchy> hierarchy)
      : name_(std::move(name)),
        hierarchy_(std::move(hierarchy)),
        level_codes_(hierarchy_->level_count()) {}

  const std::string& name() const { return name_; }
  const Hierarchy& hierarchy() const { return *hierarchy_; }
  const std::shared_ptr<Hierarchy>& hierarchy_ptr() const {
    return hierarchy_;
  }
  Hierarchy& mutable_hierarchy() { return *hierarchy_; }

  int64_t NumRows() const {
    return level_codes_.empty() ? 0
                                : static_cast<int64_t>(level_codes_[0].size());
  }

  /// \brief Appends a row; `codes` holds one member id per level,
  /// finest-first, and must be consistent with the hierarchy's part-of
  /// mapping (checked by Validate()).
  void AddRow(const std::vector<MemberId>& codes);

  /// \brief Builds a table directly from per-level columns (the
  /// persistence loader's path). Columns must be equally sized and match
  /// the hierarchy's level count.
  static DimensionTable FromColumns(std::string name,
                                    std::shared_ptr<Hierarchy> hierarchy,
                                    std::vector<std::vector<MemberId>> codes);

  MemberId CodeAt(int64_t row, int level) const {
    return level_codes_[level][row];
  }
  const std::vector<MemberId>& level_column(int level) const {
    return level_codes_[level];
  }

  /// \brief The row whose finest-level member is `code` (its first such
  /// row), or -1 when this table has none — e.g. a member that another cube
  /// sharing the hierarchy interned.
  int32_t RowOfFinestCode(MemberId code) const {
    return code >= 0 && static_cast<size_t>(code) < row_of_finest_.size()
               ? row_of_finest_[code]
               : -1;
  }

  /// \brief Checks that each row's codes agree with the hierarchy roll-up.
  Status Validate() const;

 private:
  void IndexRow(int64_t row);

  std::string name_;
  std::shared_ptr<Hierarchy> hierarchy_;
  std::vector<std::vector<MemberId>> level_codes_;
  // Finest-level member id -> row (-1 for none), maintained by AddRow and
  // FromColumns: the dimension-key lookup of ingest.
  std::vector<int32_t> row_of_finest_;
};

/// \brief The fact table of a star schema: one foreign-key column per
/// dimension (indexing dimension-table rows) plus one double column per
/// measure. A row is a business event (a cell of the detailed cube C0).
///
/// The table is append-only and versioned: every mutation commits under an
/// internal mutex and atomically publishes a new committed row count and
/// epoch. Readers take Snapshot() — raw column pointers plus the committed
/// prefix length — and never block appenders; appenders never invalidate a
/// live snapshot (capacity growth clones the column bank, and old banks
/// stay pinned by the snapshots holding them).
class FactTable {
 public:
  FactTable(std::string name, int dimension_count, int measure_count);
  FactTable(FactTable&&) = default;
  FactTable& operator=(FactTable&&) = default;

  const std::string& name() const { return name_; }

  int64_t NumRows() const {
    return state_->rows.load(std::memory_order_acquire);
  }
  /// \brief The current publication epoch (0 for an empty table).
  uint64_t epoch() const {
    return state_->epoch.load(std::memory_order_acquire);
  }
  int dimension_count() const { return dims_; }
  int measure_count() const { return meas_; }

  void Reserve(int64_t rows);

  /// \brief Appends and commits one row (epoch +1).
  void AddRow(const std::vector<int32_t>& fks,
              const std::vector<double>& measures);

  /// \brief Appends `fks[d]` / `measures[m]` column slices as one atomic
  /// batch: no snapshot ever observes part of it, and the whole batch
  /// becomes visible under a single new epoch. Columns must be equally
  /// sized and match the table's shape.
  AppendResult AppendBatch(const std::vector<std::vector<int32_t>>& fks,
                           const std::vector<std::vector<double>>& measures);

  /// \brief Builds a table directly from columns (the persistence loader's
  /// path). All columns must be equally sized.
  static FactTable FromColumns(std::string name,
                               std::vector<std::vector<int32_t>> fks,
                               std::vector<std::vector<double>> measures);

  /// \brief Overrides the publication epoch. FromColumns (and so the
  /// persistence loader) can only infer "0 or 1" from the row count, but
  /// crash recovery must restore the *exact* epoch the table carried when
  /// the checkpoint was taken — result-cache keys and WAL replay
  /// cross-checks compare epochs bit-for-bit. Recovery-time only: must not
  /// race appenders.
  void SetEpochForRecovery(uint64_t epoch);

  /// \brief Captures the committed prefix and its row-range index:
  /// O(columns).
  FactSnapshot Snapshot() const;

  /// \brief Legacy columnar accessors. Valid only while no appender runs
  /// concurrently (setup, persistence, validation); serving paths use
  /// Snapshot().
  const std::vector<int32_t>& fk_column(int dim) const {
    return state_->bank->fk[dim];
  }
  const std::vector<double>& measure_column(int m) const {
    return state_->bank->measures[m];
  }

 private:
  struct ColumnBank {
    std::vector<std::vector<int32_t>> fk;
    std::vector<std::vector<double>> measures;
  };
  struct State {
    std::mutex mu;  // guards bank/clustered/rows/epoch publication
    std::shared_ptr<ColumnBank> bank;
    // Replaced, never mutated, once published: snapshots share it.
    std::shared_ptr<const std::vector<ClusteredPrefix>> clustered;
    std::atomic<int64_t> rows{0};
    std::atomic<uint64_t> epoch{0};
  };

  /// Clones the column bank with geometric headroom when an append of
  /// `extra` rows would reallocate a column in place (which would
  /// invalidate live snapshots' raw pointers). Callers hold state_->mu.
  void EnsureCapacityLocked(int64_t extra);

  /// Extends the row-range index over just-appended rows [from, to): a
  /// copy of it, and only when some column's prefix still reaches `from`.
  /// Callers hold state_->mu.
  void ExtendClusteredLocked(int64_t from, int64_t to);

  std::string name_;
  int dims_ = 0;
  int meas_ = 0;
  // Heap-held so FactTable stays movable (mutexes and atomics are not).
  std::unique_ptr<State> state_;
};

}  // namespace assess

#endif  // ASSESS_STORAGE_TABLE_H_
