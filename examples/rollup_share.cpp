// Ancestor (roll-up) benchmark walkthrough — the Section 8 extension:
// assess a member against its own ancestor in the roll-up order, e.g. each
// product against its type ("how much of the Fresh Fruit business is
// Apples?"), under the plan BestPlan() picks.

#include <iostream>
#include <sstream>

#include "assess/session.h"
#include "ssb/sales_generator.h"

int main() {
  assess::SalesConfig config;
  config.facts = 150000;
  auto db = assess::BuildSalesDatabase(config);
  if (!db.ok()) {
    std::cerr << db.status().ToString() << "\n";
    return 1;
  }
  assess::AssessSession session(db->get());

  // Apples as a share of all fresh fruit, per country.
  const char* statement =
      "with SALES for product = 'Apple' by product, country "
      "assess quantity against type "
      "using percentage(quantity, benchmark.quantity) "
      "labels {[0, 20): niche, [20, 50): strong, [50, 100]: dominant}";

  auto result = session.Query(statement);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << "plan " << assess::PlanKindToString(result->plan) << ":\n"
            << result->ToString() << "\n";

  // The same idea one level up: every fresh-fruit product against the
  // whole category, exported as CSV for downstream tools.
  const char* category_share =
      "with SALES for type = 'Fresh Fruit' by type, country "
      "assess storeSales against category "
      "using percentage(storeSales, benchmark.storeSales) "
      "labels quartiles";
  auto shares = session.Query(category_share);
  if (!shares.ok()) {
    std::cerr << shares.status().ToString() << "\n";
    return 1;
  }
  std::ostringstream csv;
  shares->WriteCsv(csv);
  std::cout << "fresh fruit as a share of its category, as CSV:\n"
            << csv.str() << "\n";
  return 0;
}
