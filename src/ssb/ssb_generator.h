#ifndef ASSESS_SSB_SSB_GENERATOR_H_
#define ASSESS_SSB_SSB_GENERATOR_H_

#include <cstdint>
#include <memory>

#include "common/result.h"
#include "storage/star_schema.h"

namespace assess {

/// \brief Configuration of the Star Schema Benchmark generator.
///
/// At scale factor 1 the fact table has 6,000,000 lineorders over four
/// dimensions, the shape used by the paper's experiments (Section 6):
///   Date:     date ⪰ month ⪰ year           (2556 / 84 / 7, years 1992-98)
///   Customer: customer ⪰ c_city ⪰ c_nation ⪰ c_region   (30000·SF / 250 / 25 / 5)
///   Part:     part ⪰ brand ⪰ category ⪰ mfgr (200000·SF / 1000 / 25 / 5)
///   Supplier: supplier ⪰ s_city ⪰ s_nation ⪰ s_region   (2000·SF / 250 / 25 / 5)
/// Measures: quantity, revenue, supplycost (all sums).
///
/// Nation and region members follow the SSB dbgen vocabulary (25 nations in
/// 5 regions, cities named "<nation prefix><digit>"); dates are a real
/// 1992-1998 calendar so month members sort chronologically.
struct SsbConfig {
  /// SF 1 = 6e6 lineorders. The paper uses SF 1/10/100; this machine's RAM
  /// hosts a proportionally rescaled 1:10:100 series (see DESIGN.md).
  double scale_factor = 0.1;
  uint64_t seed = 42;
  /// Also generate the BUDGET cube (same hierarchies, measure
  /// plannedRevenue, half the fact density) used as the external benchmark.
  bool include_budget = true;
};

/// \brief Generates the SSB database: cube "SSB" (and "BUDGET" when
/// configured). Deterministic in (scale_factor, seed).
///
/// The bulk load clusters each fact table by the key of the temporal
/// hierarchy (Date): rows are stored in stable order of their date code,
/// which follows the calendar, so the whole date column is the fact table's
/// clustered prefix and a date-sliced scan visits only the rows of its
/// slice (FactTable's row-range index, storage/table.h). The rows
/// themselves are those drawn in generation order; only their physical
/// order differs.
Result<std::unique_ptr<StarDatabase>> BuildSsbDatabase(const SsbConfig& config);

/// \brief Number of lineorders at the given scale factor.
int64_t SsbFactCount(double scale_factor);

}  // namespace assess

#endif  // ASSESS_SSB_SSB_GENERATOR_H_
