#include "storage/table.h"

#include <algorithm>
#include <cassert>

namespace assess {

namespace {

// Appends column rows [from, to) to `prefix` while they stay non-decreasing;
// the first smaller code ends the prefix for good.
void ExtendPrefix(ClusteredPrefix* prefix, const int32_t* column,
                  int64_t from, int64_t to) {
  assert(prefix->rows == from);
  for (int64_t r = from; r < to; ++r) {
    const int32_t code = column[r];
    if (prefix->codes.empty() || code > prefix->codes.back()) {
      prefix->codes.push_back(code);
      prefix->first_row.push_back(r);
    } else if (code < prefix->codes.back()) {
      return;
    }
    prefix->rows = r + 1;
  }
}

}  // namespace

void DimensionTable::AddRow(const std::vector<MemberId>& codes) {
  for (size_t l = 0; l < level_codes_.size(); ++l) {
    level_codes_[l].push_back(codes[l]);
  }
  IndexRow(NumRows() - 1);
}

void DimensionTable::IndexRow(int64_t row) {
  if (level_codes_.empty()) return;
  const MemberId code = level_codes_[0][row];
  if (code < 0) return;
  if (static_cast<size_t>(code) >= row_of_finest_.size()) {
    row_of_finest_.resize(static_cast<size_t>(code) + 1, -1);
  }
  if (row_of_finest_[code] < 0) {
    row_of_finest_[code] = static_cast<int32_t>(row);
  }
}

Status DimensionTable::Validate() const {
  int levels = hierarchy_->level_count();
  for (int64_t row = 0; row < NumRows(); ++row) {
    for (int l = 0; l + 1 < levels; ++l) {
      MemberId fine = level_codes_[l][row];
      MemberId expected = hierarchy_->RollUpMember(l, fine, l + 1);
      if (expected != level_codes_[l + 1][row]) {
        return Status::Internal(
            "dimension '" + name_ + "' row " + std::to_string(row) +
            " disagrees with the part-of mapping between levels '" +
            hierarchy_->level_name(l) + "' and '" +
            hierarchy_->level_name(l + 1) + "'");
      }
    }
  }
  return Status::OK();
}

DimensionTable DimensionTable::FromColumns(
    std::string name, std::shared_ptr<Hierarchy> hierarchy,
    std::vector<std::vector<MemberId>> codes) {
  DimensionTable table(std::move(name), std::move(hierarchy));
  table.level_codes_ = std::move(codes);
  for (int64_t row = 0; row < table.NumRows(); ++row) table.IndexRow(row);
  return table;
}

FactTable::FactTable(std::string name, int dimension_count, int measure_count)
    : name_(std::move(name)),
      dims_(dimension_count),
      meas_(measure_count),
      state_(std::make_unique<State>()) {
  state_->bank = std::make_shared<ColumnBank>();
  state_->bank->fk.resize(dims_);
  state_->bank->measures.resize(meas_);
  state_->clustered = std::make_shared<std::vector<ClusteredPrefix>>(dims_);
}

FactTable FactTable::FromColumns(std::string name,
                                 std::vector<std::vector<int32_t>> fks,
                                 std::vector<std::vector<double>> measures) {
  FactTable table(std::move(name), static_cast<int>(fks.size()),
                  static_cast<int>(measures.size()));
  int64_t rows = !fks.empty()         ? static_cast<int64_t>(fks[0].size())
                 : !measures.empty()  ? static_cast<int64_t>(measures[0].size())
                                      : 0;
  table.state_->bank->fk = std::move(fks);
  table.state_->bank->measures = std::move(measures);
  table.ExtendClusteredLocked(0, rows);
  table.state_->rows.store(rows, std::memory_order_release);
  table.state_->epoch.store(rows > 0 ? 1 : 0, std::memory_order_release);
  return table;
}

void FactTable::EnsureCapacityLocked(int64_t extra) {
  ColumnBank& bank = *state_->bank;
  const int64_t rows = state_->rows.load(std::memory_order_relaxed);
  const int64_t need = rows + extra;
  bool fits = true;
  for (const auto& col : bank.fk) {
    if (static_cast<int64_t>(col.capacity()) < need) fits = false;
  }
  for (const auto& col : bank.measures) {
    if (static_cast<int64_t>(col.capacity()) < need) fits = false;
  }
  if (fits) return;

  // Live snapshots hold raw pointers into the current arrays; growing a
  // column in place would reallocate under them. Growth therefore clones
  // the whole bank — snapshots pin the old one until they drop — with
  // geometric headroom so repeated appends amortize to O(1) per row.
  const int64_t cap = std::max<int64_t>({need, rows * 2, int64_t{1024}});
  auto grown = std::make_shared<ColumnBank>();
  grown->fk.resize(bank.fk.size());
  grown->measures.resize(bank.measures.size());
  for (size_t d = 0; d < bank.fk.size(); ++d) {
    grown->fk[d].reserve(cap);
    grown->fk[d].assign(bank.fk[d].begin(), bank.fk[d].end());
  }
  for (size_t m = 0; m < bank.measures.size(); ++m) {
    grown->measures[m].reserve(cap);
    grown->measures[m].assign(bank.measures[m].begin(),
                              bank.measures[m].end());
  }
  state_->bank = std::move(grown);
}

void FactTable::ExtendClusteredLocked(int64_t from, int64_t to) {
  const std::vector<ClusteredPrefix>& cur = *state_->clustered;
  if (std::none_of(cur.begin(), cur.end(), [&](const ClusteredPrefix& c) {
        return c.rows == from;
      })) {
    return;
  }
  auto next = std::make_shared<std::vector<ClusteredPrefix>>(cur);
  for (int d = 0; d < dims_; ++d) {
    ClusteredPrefix& prefix = (*next)[d];
    if (prefix.rows == from) {
      ExtendPrefix(&prefix, state_->bank->fk[d].data(), from, to);
    }
  }
  state_->clustered = std::move(next);
}

void FactTable::Reserve(int64_t rows) {
  std::lock_guard<std::mutex> lock(state_->mu);
  int64_t have = state_->rows.load(std::memory_order_relaxed);
  if (rows > have) EnsureCapacityLocked(rows - have);
}

void FactTable::AddRow(const std::vector<int32_t>& fks,
                       const std::vector<double>& measures) {
  std::lock_guard<std::mutex> lock(state_->mu);
  EnsureCapacityLocked(1);
  ColumnBank& bank = *state_->bank;
  for (int d = 0; d < dims_; ++d) bank.fk[d].push_back(fks[d]);
  for (int m = 0; m < meas_; ++m) bank.measures[m].push_back(measures[m]);
  const int64_t rows = state_->rows.load(std::memory_order_relaxed);
  ExtendClusteredLocked(rows, rows + 1);
  state_->rows.store(rows + 1, std::memory_order_release);
  state_->epoch.store(state_->epoch.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
}

AppendResult FactTable::AppendBatch(
    const std::vector<std::vector<int32_t>>& fks,
    const std::vector<std::vector<double>>& measures) {
  assert(static_cast<int>(fks.size()) == dims_);
  assert(static_cast<int>(measures.size()) == meas_);
  const int64_t n = !fks.empty()        ? static_cast<int64_t>(fks[0].size())
                    : !measures.empty() ? static_cast<int64_t>(measures[0].size())
                                        : 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  AppendResult result;
  result.first_row = state_->rows.load(std::memory_order_relaxed);
  result.rows = n;
  result.epoch = state_->epoch.load(std::memory_order_relaxed);
  if (n == 0) return result;
  EnsureCapacityLocked(n);
  ColumnBank& bank = *state_->bank;
  for (int d = 0; d < dims_; ++d) {
    assert(static_cast<int64_t>(fks[d].size()) == n);
    bank.fk[d].insert(bank.fk[d].end(), fks[d].begin(), fks[d].end());
  }
  for (int m = 0; m < meas_; ++m) {
    assert(static_cast<int64_t>(measures[m].size()) == n);
    bank.measures[m].insert(bank.measures[m].end(), measures[m].begin(),
                            measures[m].end());
  }
  ExtendClusteredLocked(result.first_row, result.first_row + n);
  result.epoch += 1;
  state_->rows.store(result.first_row + n, std::memory_order_release);
  state_->epoch.store(result.epoch, std::memory_order_release);
  return result;
}

void FactTable::SetEpochForRecovery(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->epoch.store(epoch, std::memory_order_release);
}

FactSnapshot FactTable::Snapshot() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  FactSnapshot snap;
  snap.rows = state_->rows.load(std::memory_order_relaxed);
  snap.epoch = state_->epoch.load(std::memory_order_relaxed);
  const ColumnBank& bank = *state_->bank;
  snap.fk.reserve(dims_);
  for (int d = 0; d < dims_; ++d) snap.fk.push_back(bank.fk[d].data());
  snap.measures.reserve(meas_);
  for (int m = 0; m < meas_; ++m) {
    snap.measures.push_back(bank.measures[m].data());
  }
  snap.clustered = state_->clustered;
  snap.bank = state_->bank;
  return snap;
}

}  // namespace assess
