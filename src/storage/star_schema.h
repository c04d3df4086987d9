#ifndef ASSESS_STORAGE_STAR_SCHEMA_H_
#define ASSESS_STORAGE_STAR_SCHEMA_H_

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cube_cache.h"
#include "common/result.h"
#include "olap/cube_schema.h"
#include "storage/table.h"

namespace assess {

/// \brief A detailed cube bound to its star-schema storage: the cube schema,
/// one dimension table per hierarchy (parallel to schema hierarchy order),
/// the fact table, and any materialized views declared on it.
class BoundCube {
 public:
  BoundCube(std::shared_ptr<CubeSchema> schema,
            std::vector<DimensionTable> dimensions, FactTable facts)
      : schema_(std::move(schema)),
        dimensions_(std::move(dimensions)),
        facts_(std::move(facts)),
        views_(std::make_shared<const std::vector<CubeEntry>>()) {}

  const CubeSchema& schema() const { return *schema_; }
  const std::shared_ptr<CubeSchema>& schema_ptr() const { return schema_; }

  const DimensionTable& dimension(int h) const { return dimensions_[h]; }
  const FactTable& facts() const { return facts_; }

  /// \brief Write access for ingestion. Fact appends are snapshot-safe on
  /// their own; dimension growth additionally requires the database's
  /// exclusive schema lock (see StarDatabase::schema_mutex).
  FactTable& mutable_facts() { return facts_; }
  DimensionTable& mutable_dimension(int h) { return dimensions_[h]; }

  /// \brief The current materialized views (never null; possibly empty):
  /// an immutable, atomically swapped set of CubeEntries, each stamped with
  /// the fact epoch its contents aggregate. Views lag fact commits (facts
  /// publish first, views after); a view at another epoch than the get's
  /// snapshot never answers it (EntryAnswersQuery), so a query never mixes
  /// view data and fact data from different epochs.
  std::shared_ptr<const std::vector<CubeEntry>> views_snapshot() const {
    std::lock_guard<std::mutex> lock(view_mu_);
    return views_;
  }

  /// \brief Appends a view (setup-time path: no appender may run
  /// concurrently).
  void AddView(CubeEntry view) {
    std::lock_guard<std::mutex> lock(view_mu_);
    auto next = std::make_shared<std::vector<CubeEntry>>(*views_);
    next->push_back(std::move(view));
    views_ = std::move(next);
  }

  /// \brief Atomically replaces the whole set — the view-maintenance
  /// commit path.
  void PublishViews(std::vector<CubeEntry> views) {
    auto next =
        std::make_shared<const std::vector<CubeEntry>>(std::move(views));
    std::lock_guard<std::mutex> lock(view_mu_);
    views_ = std::move(next);
  }

  /// \brief Serializes appenders on this cube: one ingest commit (append +
  /// derived extension + view maintenance + cache invalidation) at a time.
  std::mutex& ingest_mutex() const { return ingest_mu_; }

  /// \brief Cross-checks dimension tables against their hierarchies and the
  /// fact table's foreign keys against dimension sizes.
  Status Validate() const;

 private:
  std::shared_ptr<CubeSchema> schema_;
  std::vector<DimensionTable> dimensions_;
  FactTable facts_;
  mutable std::mutex view_mu_;
  std::shared_ptr<const std::vector<CubeEntry>> views_;
  mutable std::mutex ingest_mu_;
};

/// \brief The database: a catalog of named detailed cubes. Targets and
/// external benchmarks are both regular entries; an external benchmark is
/// simply another cube reconciled to share hierarchies with the target
/// (Section 3.1 of the paper assumes reconciliation has been applied).
class StarDatabase {
 public:
  StarDatabase() = default;
  StarDatabase(const StarDatabase&) = delete;
  StarDatabase& operator=(const StarDatabase&) = delete;

  Status Register(std::string name, std::unique_ptr<BoundCube> cube);

  Result<const BoundCube*> Find(std::string_view name) const;
  bool Contains(std::string_view name) const;

  /// \brief Names of all registered cubes (catalog listing).
  std::vector<std::string> CubeNames() const;

  /// \brief Mutable access, used to attach materialized views after load
  /// and by the ingestion path.
  Result<BoundCube*> FindMutable(std::string_view name);

  /// \brief The schema lock. Member-stable fact appends are lock-free
  /// (snapshots isolate them); but growing a dimension table or a hierarchy
  /// dictionary mutates structures queries index directly, so sessions hold
  /// this shared for the duration of a statement and dictionary-mutating
  /// ingest commits hold it exclusive.
  std::shared_mutex& schema_mutex() const { return schema_mu_; }

 private:
  std::unordered_map<std::string, std::unique_ptr<BoundCube>> cubes_;
  mutable std::shared_mutex schema_mu_;
};

}  // namespace assess

#endif  // ASSESS_STORAGE_STAR_SCHEMA_H_
