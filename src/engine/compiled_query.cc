#include "engine/compiled_query.h"

#include <chrono>
#include <utility>

#include "lang/infix_free.h"
#include "lang/ro_enfa.h"

namespace rpqres {

Result<std::shared_ptr<const CompiledQuery>> CompileQuery(
    const std::string& regex, Semantics semantics,
    const CompileOptions& options) {
  auto start = std::chrono::steady_clock::now();

  RPQRES_ASSIGN_OR_RETURN(Language language,
                          Language::FromRegexString(regex));
  // Plan first: the Figure 1 verdict reads its PTIME side off the plan.
  RPQRES_ASSIGN_OR_RETURN(ResiliencePlan plan,
                          PlanResilienceWithIF(InfixFreeSublanguage(language)));
  RPQRES_ASSIGN_OR_RETURN(
      Classification classification,
      ClassifyResilienceWithPlan(language, plan, options.max_word_length));

  // Fixed-endpoint support: tables for L's own RO-εNFA, when L is local
  // (no IF fallback — the rewrite is unsound with fixed endpoints). L local
  // implies IF(L) local, so only a local or trivial plan can have them,
  // and when L ≡ IF(L) they are the plan's own tables.
  std::optional<RoProductTables> ro_tables_exact;
  if (plan.ro_tables.has_value() && language.EquivalentTo(plan.if_language)) {
    ro_tables_exact = plan.ro_tables;
  } else if (plan.method == ResilienceMethod::kLocalFlow ||
             plan.trivial_infinite || plan.trivial_empty) {
    if (Result<Enfa> exact_ro = BuildRoEnfa(language); exact_ro.ok()) {
      if (Result<RoProductTables> tables = BuildRoProductTables(*exact_ro);
          tables.ok()) {
        ro_tables_exact = *std::move(tables);
      }
    }
  }
  auto compiled = std::make_shared<CompiledQuery>(CompiledQuery{
      regex, semantics, std::move(language), std::move(classification),
      std::move(plan), std::move(ro_tables_exact), /*compile_micros=*/0});
  compiled->compile_micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  return std::shared_ptr<const CompiledQuery>(std::move(compiled));
}

}  // namespace rpqres
