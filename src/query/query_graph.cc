#include "query/query_graph.h"

#include "util/logging.h"

namespace aplus {

const char* ToString(AggFn fn) {
  switch (fn) {
    case AggFn::kNone:
      return "";
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAvg:
      return "AVG";
  }
  return "?";
}

int QueryGraph::AddVertex(std::string_view name, label_t label, vertex_id_t bound) {
  APLUS_CHECK(FindVertex(name) < 0) << "duplicate query vertex " << name;
  vertices_.push_back(QueryVertex{std::string(name), label, bound});
  return static_cast<int>(vertices_.size() - 1);
}

int QueryGraph::AddEdge(int from, int to, label_t label, std::string_view name) {
  APLUS_CHECK_GE(from, 0);
  APLUS_CHECK_LT(from, num_vertices());
  APLUS_CHECK_GE(to, 0);
  APLUS_CHECK_LT(to, num_vertices());
  std::string edge_name =
      name.empty() ? "e" + std::to_string(edges_.size() + 1) : std::string(name);
  edges_.push_back(QueryEdge{std::move(edge_name), from, to, label, !name.empty()});
  return static_cast<int>(edges_.size() - 1);
}

int QueryGraph::FindVertex(std::string_view name) const {
  for (size_t i = 0; i < vertices_.size(); ++i) {
    if (vertices_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

int QueryGraph::FindEdge(std::string_view name) const {
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (edges_[i].named && edges_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Value ReadQueryPropRef(const Graph& graph, const QueryPropRef& ref, const MatchState& state) {
  if (ref.is_edge) {
    edge_id_t e = state.e[ref.var];
    APLUS_DCHECK(e != kInvalidEdge);
    if (ref.is_id) return Value::Int64(static_cast<int64_t>(e));
    return graph.edge_props().Get(ref.key, e);
  }
  vertex_id_t v = state.v[ref.var];
  APLUS_DCHECK(v != kInvalidVertex);
  if (ref.is_id) return Value::Int64(v);
  return graph.vertex_props().Get(ref.key, v);
}

bool EvalQueryComparison(const Graph& graph, const QueryComparison& cmp,
                         const MatchState& state) {
  Value lhs = ReadQueryPropRef(graph, cmp.lhs, state);
  if (lhs.is_null()) return false;
  if (cmp.rhs_is_const) return EvalValues(cmp.op, lhs, cmp.rhs_const, 0);
  return EvalValues(cmp.op, lhs, ReadQueryPropRef(graph, cmp.rhs_ref, state), cmp.rhs_addend);
}

bool ComparisonIsBound(const QueryComparison& cmp, const MatchState& state) {
  auto bound = [&state](const QueryPropRef& ref) {
    if (ref.is_edge) return state.e[ref.var] != kInvalidEdge;
    return state.v[ref.var] != kInvalidVertex;
  };
  if (!bound(cmp.lhs)) return false;
  if (!cmp.rhs_is_const && !bound(cmp.rhs_ref)) return false;
  return true;
}

}  // namespace aplus
