#ifndef APLUS_OPTIMIZER_PLAN_PRINTER_H_
#define APLUS_OPTIMIZER_PLAN_PRINTER_H_

#include <string>
#include <vector>

#include "optimizer/dp_optimizer.h"

namespace aplus {

// Renders an optimized plan as a bottom-up plan tree in the style of
// Figure 6 (Scan at the bottom, each operator above its input), from the
// optimizer's step outline and the descriptors of the plan's operators
// (DpOptimizer::last_outline and the Plan it returned, or a clone of
// that Plan). `sink_chain` (ProjectSinkOp::ChainLines: projection first,
// each sink stage after it) renders above the operator tree, most-
// downstream stage (LIMIT / ORDER BY) outermost, so the plan text
// explains the full result path of aggregate plans.
std::string RenderPlanTree(const QueryGraph& query, const Catalog& catalog,
                           const std::vector<StepOutline>& steps, const Plan& plan,
                           const std::vector<std::string>& sink_chain = {});

}  // namespace aplus

#endif  // APLUS_OPTIMIZER_PLAN_PRINTER_H_
