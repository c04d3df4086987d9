#include "ssb/ssb_generator.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"

namespace assess {

namespace {

// The SSB dbgen nation vocabulary: 25 nations in 5 regions.
struct Nation {
  const char* name;
  const char* region;
};
constexpr Nation kNations[] = {
    {"ALGERIA", "AFRICA"},       {"ETHIOPIA", "AFRICA"},
    {"KENYA", "AFRICA"},         {"MOROCCO", "AFRICA"},
    {"MOZAMBIQUE", "AFRICA"},    {"ARGENTINA", "AMERICA"},
    {"BRAZIL", "AMERICA"},       {"CANADA", "AMERICA"},
    {"PERU", "AMERICA"},         {"UNITED STATES", "AMERICA"},
    {"CHINA", "ASIA"},           {"INDIA", "ASIA"},
    {"INDONESIA", "ASIA"},       {"JAPAN", "ASIA"},
    {"VIETNAM", "ASIA"},         {"FRANCE", "EUROPE"},
    {"GERMANY", "EUROPE"},       {"ROMANIA", "EUROPE"},
    {"RUSSIA", "EUROPE"},        {"UNITED KINGDOM", "EUROPE"},
    {"EGYPT", "MIDDLE EAST"},    {"IRAN", "MIDDLE EAST"},
    {"IRAQ", "MIDDLE EAST"},     {"JORDAN", "MIDDLE EAST"},
    {"SAUDI ARABIA", "MIDDLE EAST"},
};
constexpr int kNationCount = 25;
constexpr int kCitiesPerNation = 10;

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[] = {31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
  if (month == 2 && IsLeapYear(year)) return 29;
  return kDays[month - 1];
}

std::string PadNumber(int64_t n, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*lld", width,
                static_cast<long long>(n));
  return buf;
}

// SSB-style city members: first 9 characters of the nation plus a digit.
std::string CityName(int nation, int city_in_nation) {
  std::string prefix(kNations[nation].name);
  prefix.resize(9, ' ');
  return prefix + std::to_string(city_in_nation);
}

// Builds the Date hierarchy/dimension: a real 1992-1998 calendar.
void BuildDateDimension(const std::shared_ptr<Hierarchy>& hier,
                        DimensionTable* dim) {
  int l_date = 0, l_month = 1, l_year = 2;
  for (int year = 1992; year <= 1998; ++year) {
    std::string year_name = std::to_string(year);
    MemberId year_id = hier->AddMember(l_year, year_name);
    for (int month = 1; month <= 12; ++month) {
      std::string month_name = year_name + "-" + PadNumber(month, 2);
      MemberId month_id = hier->AddMember(l_month, month_name);
      hier->SetParent(l_month, month_id, year_id);
      for (int day = 1; day <= DaysInMonth(year, month); ++day) {
        std::string date_name = month_name + "-" + PadNumber(day, 2);
        MemberId date_id = hier->AddMember(l_date, date_name);
        hier->SetParent(l_date, date_id, month_id);
        dim->AddRow({date_id, month_id, year_id});
      }
    }
  }
}

// Builds a geography-style dimension (customer/supplier): `count` bottom
// members mapped into the 250 SSB cities.
void BuildGeoDimension(const std::shared_ptr<Hierarchy>& hier,
                       DimensionTable* dim, const std::string& member_prefix,
                       int64_t count, Rng* rng) {
  int l_bottom = 0, l_city = 1, l_nation = 2, l_region = 3;
  // Regions / nations / cities first, so ids are stable across scales.
  std::vector<MemberId> region_ids;
  std::vector<MemberId> nation_ids(kNationCount);
  std::vector<MemberId> city_ids(kNationCount * kCitiesPerNation);
  for (int n = 0; n < kNationCount; ++n) {
    MemberId region = hier->AddMember(l_region, kNations[n].region);
    MemberId nation = hier->AddMember(l_nation, kNations[n].name);
    hier->SetParent(l_nation, nation, region);
    nation_ids[n] = nation;
    for (int c = 0; c < kCitiesPerNation; ++c) {
      MemberId city = hier->AddMember(l_city, CityName(n, c));
      hier->SetParent(l_city, city, nation);
      city_ids[n * kCitiesPerNation + c] = city;
    }
  }
  for (int64_t i = 0; i < count; ++i) {
    MemberId bottom =
        hier->AddMember(l_bottom, member_prefix + PadNumber(i + 1, 9));
    int city_index =
        static_cast<int>(rng->Uniform(kNationCount * kCitiesPerNation));
    MemberId city = city_ids[city_index];
    hier->SetParent(l_bottom, bottom, city);
    MemberId nation = nation_ids[city_index / kCitiesPerNation];
    MemberId region = hier->RollUpMember(l_nation, nation, l_region);
    dim->AddRow({bottom, city, nation, region});
  }
}

// Builds the Part dimension: parts -> 1000 brands -> 25 categories ->
// 5 manufacturers.
void BuildPartDimension(const std::shared_ptr<Hierarchy>& hier,
                        DimensionTable* dim, int64_t count, Rng* rng) {
  int l_part = 0, l_brand = 1, l_category = 2, l_mfgr = 3;
  constexpr int kMfgrs = 5;
  constexpr int kCategoriesPerMfgr = 5;
  constexpr int kBrandsPerCategory = 40;
  std::vector<MemberId> brand_ids;
  for (int m = 0; m < kMfgrs; ++m) {
    MemberId mfgr = hier->AddMember(l_mfgr, "MFGR#" + std::to_string(m + 1));
    for (int c = 0; c < kCategoriesPerMfgr; ++c) {
      MemberId category = hier->AddMember(
          l_category, "MFGR#" + std::to_string(m + 1) + std::to_string(c + 1));
      hier->SetParent(l_category, category, mfgr);
      for (int b = 0; b < kBrandsPerCategory; ++b) {
        MemberId brand = hier->AddMember(
            l_brand, "MFGR#" + std::to_string(m + 1) + std::to_string(c + 1) +
                         PadNumber(b + 1, 2));
        hier->SetParent(l_brand, brand, category);
        brand_ids.push_back(brand);
      }
    }
  }
  for (int64_t i = 0; i < count; ++i) {
    MemberId part = hier->AddMember(l_part, "Part#" + PadNumber(i + 1, 9));
    MemberId brand = brand_ids[rng->Uniform(brand_ids.size())];
    hier->SetParent(l_part, part, brand);
    MemberId category = hier->RollUpMember(l_brand, brand, l_category);
    MemberId mfgr = hier->RollUpMember(l_category, category, l_mfgr);
    dim->AddRow({part, brand, category, mfgr});
  }
}

struct SsbShape {
  int64_t facts;
  int64_t customers;
  int64_t parts;
  int64_t suppliers;
};

SsbShape ShapeFor(double sf) {
  SsbShape shape;
  shape.facts = static_cast<int64_t>(6000000.0 * sf);
  shape.customers = std::max<int64_t>(150, static_cast<int64_t>(30000.0 * sf));
  shape.parts = std::max<int64_t>(500, static_cast<int64_t>(200000.0 * sf));
  shape.suppliers = std::max<int64_t>(40, static_cast<int64_t>(2000.0 * sf));
  return shape;
}

// Shared hierarchy construction for SSB-shaped cubes (SSB and BUDGET).
struct SsbHierarchies {
  std::shared_ptr<Hierarchy> date;
  std::shared_ptr<Hierarchy> customer;
  std::shared_ptr<Hierarchy> part;
  std::shared_ptr<Hierarchy> supplier;
};

SsbHierarchies MakeHierarchies() {
  SsbHierarchies h;
  h.date = std::make_shared<Hierarchy>("Date");
  h.date->set_temporal(true);
  h.date->AddLevel("date");
  h.date->AddLevel("month");
  h.date->AddLevel("year");
  h.customer = std::make_shared<Hierarchy>("Customer");
  h.customer->AddLevel("customer");
  h.customer->AddLevel("c_city");
  h.customer->AddLevel("c_nation");
  h.customer->AddLevel("c_region");
  h.part = std::make_shared<Hierarchy>("Part");
  h.part->AddLevel("part");
  h.part->AddLevel("brand");
  h.part->AddLevel("category");
  h.part->AddLevel("mfgr");
  h.supplier = std::make_shared<Hierarchy>("Supplier");
  h.supplier->AddLevel("supplier");
  h.supplier->AddLevel("s_city");
  h.supplier->AddLevel("s_nation");
  h.supplier->AddLevel("s_region");
  return h;
}

}  // namespace

int64_t SsbFactCount(double scale_factor) {
  return ShapeFor(scale_factor).facts;
}

Result<std::unique_ptr<StarDatabase>> BuildSsbDatabase(
    const SsbConfig& config) {
  if (config.scale_factor <= 0.0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  SsbShape shape = ShapeFor(config.scale_factor);
  Rng rng(config.seed);

  SsbHierarchies h = MakeHierarchies();

  // Dimension tables (shared content between SSB and BUDGET).
  DimensionTable dates("date", h.date);
  BuildDateDimension(h.date, &dates);
  DimensionTable customers("customer", h.customer);
  BuildGeoDimension(h.customer, &customers, "Customer#", shape.customers,
                    &rng);
  DimensionTable parts("part", h.part);
  BuildPartDimension(h.part, &parts, shape.parts, &rng);
  DimensionTable suppliers("supplier", h.supplier);
  BuildGeoDimension(h.supplier, &suppliers, "Supplier#", shape.suppliers,
                    &rng);

  auto schema = std::make_shared<CubeSchema>("SSB");
  schema->AddHierarchy(h.date);
  schema->AddHierarchy(h.customer);
  schema->AddHierarchy(h.part);
  schema->AddHierarchy(h.supplier);
  schema->AddMeasure({"quantity", AggOp::kSum});
  schema->AddMeasure({"revenue", AggOp::kSum});
  schema->AddMeasure({"supplycost", AggOp::kSum});

  const int32_t n_dates = static_cast<int32_t>(dates.NumRows());
  // Bulk-loads one fact table in stable order of the date code (see
  // BuildSsbDatabase in the header), without a row permutation or a second
  // copy of the columns.
  auto generate_facts = [&](std::string name, int64_t rows, bool budget,
                            Rng* gen) {
    const int n_measures = budget ? 1 : 3;
    int32_t fks[4];
    double measures[3];
    // One draw definition for both passes, so their draw counts match.
    auto draw_row = [&](Rng* r) {
      fks[0] = static_cast<int32_t>(r->Uniform(n_dates));
      fks[1] = static_cast<int32_t>(r->Uniform(shape.customers));
      if (budget && fks[1] % 5 == 0) {
        // One customer in five has no budget lines, so the external join
        // genuinely drops (assess) or null-labels (assess*) target cells.
        fks[1] = static_cast<int32_t>((fks[1] + 1) % shape.customers);
        if (fks[1] % 5 == 0) fks[1] += 1;
      }
      fks[2] = static_cast<int32_t>(r->Skewed(shape.parts));
      fks[3] = static_cast<int32_t>(r->Uniform(shape.suppliers));
      double quantity = 1.0 + static_cast<double>(r->Uniform(50));
      double price = 1000.0 + static_cast<double>(fks[2] % 9000);
      double discount = static_cast<double>(r->Uniform(11)) / 100.0;
      double revenue = quantity * price * (1.0 - discount);
      if (budget) {
        // Planned revenue: the expected value with planning noise.
        measures[0] = revenue * (0.9 + 0.2 * r->NextDouble());
      } else {
        measures[0] = quantity;
        measures[1] = revenue;
        measures[2] = revenue * (0.55 + 0.2 * r->NextDouble());
      }
    };
    // Count pass on a copy of the generator: next_row[d] becomes the first
    // row of date d, then advances as the placing pass fills that date.
    std::vector<int64_t> next_row(n_dates + 1, 0);
    Rng counter = *gen;
    for (int64_t i = 0; i < rows; ++i) {
      draw_row(&counter);
      ++next_row[fks[0] + 1];
    }
    for (int32_t d = 0; d < n_dates; ++d) next_row[d + 1] += next_row[d];
    // Placing pass: each row goes straight into its final slot. Columns
    // are sized in place, not copied from a prototype: freeing a large
    // temporary raises glibc's dynamic mmap threshold, and later column
    // growth then lands on the heap, where freed banks are not returned.
    std::vector<std::vector<int32_t>> fk_cols(4);
    for (std::vector<int32_t>& col : fk_cols) col.resize(rows);
    std::vector<std::vector<double>> measure_cols(n_measures);
    for (std::vector<double>& col : measure_cols) col.resize(rows);
    for (int64_t i = 0; i < rows; ++i) {
      draw_row(gen);
      const int64_t at = next_row[fks[0]]++;
      for (int d = 0; d < 4; ++d) fk_cols[d][at] = fks[d];
      for (int m = 0; m < n_measures; ++m) measure_cols[m][at] = measures[m];
    }
    return FactTable::FromColumns(std::move(name), std::move(fk_cols),
                                  std::move(measure_cols));
  };

  auto db = std::make_unique<StarDatabase>();

  {
    FactTable facts = generate_facts("SSB", shape.facts, /*budget=*/false,
                                     &rng);
    std::vector<DimensionTable> dims = {dates, customers, parts, suppliers};
    auto bound = std::make_unique<BoundCube>(schema, std::move(dims),
                                             std::move(facts));
    ASSESS_RETURN_NOT_OK(db->Register("SSB", std::move(bound)));
  }

  if (config.include_budget) {
    auto budget_schema = std::make_shared<CubeSchema>("BUDGET");
    budget_schema->AddHierarchy(h.date);
    budget_schema->AddHierarchy(h.customer);
    budget_schema->AddHierarchy(h.part);
    budget_schema->AddHierarchy(h.supplier);
    budget_schema->AddMeasure({"plannedRevenue", AggOp::kSum});
    Rng budget_rng(config.seed ^ 0xB0D6E7ULL);
    FactTable facts = generate_facts("BUDGET", shape.facts / 2,
                                     /*budget=*/true, &budget_rng);
    std::vector<DimensionTable> dims = {dates, customers, parts, suppliers};
    auto bound = std::make_unique<BoundCube>(budget_schema, std::move(dims),
                                             std::move(facts));
    ASSESS_RETURN_NOT_OK(db->Register("BUDGET", std::move(bound)));
  }

  return db;
}

}  // namespace assess
