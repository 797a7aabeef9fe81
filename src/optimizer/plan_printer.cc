#include "optimizer/plan_printer.h"

#include "util/logging.h"

namespace aplus {

std::string RenderPlanTree(const QueryGraph& query, const Catalog& catalog,
                           const std::vector<StepOutline>& steps, const Plan& plan,
                           const std::vector<std::string>& sink_chain) {
  // The steps' lists, in plan order: each step's are the next num_lists.
  std::vector<const ListDescriptor*> lists;
  for (const auto& op : plan.primary_ops()) {
    auto [begin, count] = op->lists();
    for (size_t i = 0; i < count; ++i) lists.push_back(begin + i);
  }
  size_t next_list = 0;
  auto describe_lists = [&](const StepOutline& step, const char* separator) {
    std::string out;
    for (uint32_t i = 0; i < step.num_lists; ++i) {
      APLUS_CHECK_LT(next_list, lists.size()) << "plan has fewer lists than its outline";
      if (i > 0) out += separator;
      out += lists[next_list++]->Describe(catalog, query);
    }
    return out;
  };
  // Bottom-up: the scan prints last, each subsequent operator above it.
  std::vector<std::string> lines;
  for (const StepOutline& step : steps) {
    std::string line;
    switch (step.kind) {
      case StepOutline::Kind::kScan: {
        const QueryVertex& qv = query.vertex(step.scan_var);
        line = "SCAN " + qv.name;
        if (qv.bound_param >= 0) {
          line += " (ID=$param)";  // pinned by a prepared-query parameter
        } else if (qv.bound != kInvalidVertex) {
          line += " (ID=" + std::to_string(qv.bound) + ")";
        }
        break;
      }
      case StepOutline::Kind::kExtend:
        line = "EXTEND " + describe_lists(step, "");
        break;
      case StepOutline::Kind::kExtendVerify:
        line = "EXTEND+VERIFY " + describe_lists(step, " ? ");
        break;
      case StepOutline::Kind::kExtendIntersect:
        line = "EXTEND/INTERSECT " + describe_lists(step, " \xE2\x88\xA9 ");  // set intersection
        break;
      case StepOutline::Kind::kMultiExtend:
        line = "MULTI-EXTEND " + describe_lists(step, " \xE2\x88\xA9 ");
        break;
    }
    if (step.num_residual > 0) {
      line += "  [FILTER x" + std::to_string(step.num_residual) + "]";
    }
    lines.push_back(std::move(line));
  }
  // The sink chain consumes the operator tree's output: each entry is one
  // step further downstream, so it stacks on top in chain order.
  for (const std::string& stage : sink_chain) lines.push_back(stage);
  std::string out;
  for (size_t i = lines.size(); i-- > 0;) {
    size_t depth = lines.size() - 1 - i;
    out += std::string(2 * depth, ' ');
    out += lines[i];
    out += "\n";
  }
  return out;
}

}  // namespace aplus
