#ifndef APLUS_QUERY_QUERY_GRAPH_H_
#define APLUS_QUERY_QUERY_GRAPH_H_

#include <string>
#include <string_view>
#include <vector>

#include "storage/graph.h"
#include "storage/types.h"
#include "view/predicate.h"

namespace aplus {

// Aggregate functions of the RETURN clause (the serving layer's
// grouped-aggregation surface). kNone marks a plain projection item,
// which doubles as a group key when the projection mixes bare items and
// aggregates (SQL-style implicit GROUP BY).
enum class AggFn : uint8_t {
  kNone = 0,
  kCount,  // COUNT(*) / COUNT(<ref>) — rows (non-null refs) per group
  kSum,
  kMin,
  kMax,
  kAvg,
};

const char* ToString(AggFn fn);

// A property reference inside a query predicate: <var>.<key>, where var
// names a query vertex or query edge, or the pseudo-property .ID.
struct QueryPropRef {
  int var = -1;
  bool is_edge = false;
  prop_key_t key = kInvalidPropKey;
  bool is_id = false;

  bool operator==(const QueryPropRef& o) const {
    return var == o.var && is_edge == o.is_edge && key == o.key && is_id == o.is_id;
  }
};

// One conjunct of a query's WHERE clause, e.g. a2.city = a4.city,
// a3.ID < 10000, or the money-flow predicate e1.amt < e2.amt + alpha.
struct QueryComparison {
  QueryPropRef lhs;
  CmpOp op = CmpOp::kEq;
  bool rhs_is_const = true;
  Value rhs_const;
  QueryPropRef rhs_ref;
  int64_t rhs_addend = 0;
  // >= 0 when the right-hand constant is a prepared-query parameter
  // ($name): rhs_const stays null at plan time (the optimizer treats the
  // conjunct as an opaque residual) and is patched in the physical plan
  // at bind time through Operator::CollectParamSlots.
  int rhs_param = -1;
};

struct QueryVertex {
  std::string name;
  label_t label = kInvalidLabel;       // optional label filter
  vertex_id_t bound = kInvalidVertex;  // optional literal binding (e.g. a1.ID = v1)
  // >= 0 when the binding comes from a `<var>.ID = $param` pin: `bound`
  // holds a placeholder at prepare time and is patched at bind time.
  int bound_param = -1;
};

struct QueryEdge {
  std::string name;  // as given, else generated ("e<index + 1>")
  int from = -1;     // query-vertex index; the edge is directed from -> to
  int to = -1;
  label_t label = kInvalidLabel;  // optional label filter
  bool named = false;             // `name` was given, not generated
};

// The subgraph pattern component of a query (Section IV-A): query
// vertices, directed query edges, and a conjunctive predicate. Matching
// semantics are subgraph isomorphism (distinct query vertices bind
// distinct data vertices, hence also distinct edges), applied uniformly
// across the A+ engine and the baseline engines.
class QueryGraph {
 public:
  int AddVertex(std::string_view name, label_t label = kInvalidLabel,
                vertex_id_t bound = kInvalidVertex);
  int AddEdge(int from, int to, label_t label = kInvalidLabel, std::string_view name = {});
  void AddPredicate(QueryComparison cmp) { predicates_.push_back(std::move(cmp)); }
  void Reserve(size_t vertices, size_t edges, size_t predicates) {
    vertices_.reserve(vertices);
    edges_.reserve(edges);
    predicates_.reserve(predicates);
  }

  int FindVertex(std::string_view name) const;
  // The edge given the name `name`; generated names are never found, so
  // an unnamed edge cannot capture a name the query gives another edge.
  int FindEdge(std::string_view name) const;

  int num_vertices() const { return static_cast<int>(vertices_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const QueryVertex& vertex(int i) const { return vertices_[i]; }
  QueryVertex& mutable_vertex(int i) { return vertices_[i]; }
  const QueryEdge& edge(int i) const { return edges_[i]; }
  const std::vector<QueryComparison>& predicates() const { return predicates_; }

 private:
  std::vector<QueryVertex> vertices_;
  std::vector<QueryEdge> edges_;
  std::vector<QueryComparison> predicates_;
};

// A partial match: per-variable bindings plus the output counter.
struct MatchState {
  std::vector<vertex_id_t> v;  // kInvalidVertex = unbound
  std::vector<edge_id_t> e;    // kInvalidEdge = unbound
  uint64_t count = 0;

  void Reset(int num_vertices, int num_edges) {
    v.assign(num_vertices, kInvalidVertex);
    e.assign(num_edges, kInvalidEdge);
    count = 0;
  }

  bool VertexAlreadyBound(vertex_id_t id) const {
    for (vertex_id_t b : v) {
      if (b == id) return true;
    }
    return false;
  }
  bool EdgeAlreadyBound(edge_id_t id) const {
    for (edge_id_t b : e) {
      if (b == id) return true;
    }
    return false;
  }
};

// Reads the value a QueryPropRef points at under `state`; the referenced
// variable must be bound.
Value ReadQueryPropRef(const Graph& graph, const QueryPropRef& ref, const MatchState& state);

// Evaluates one query conjunct; null property values compare false.
bool EvalQueryComparison(const Graph& graph, const QueryComparison& cmp, const MatchState& state);

// True when every variable the comparison references is bound in `state`.
bool ComparisonIsBound(const QueryComparison& cmp, const MatchState& state);

}  // namespace aplus

#endif  // APLUS_QUERY_QUERY_GRAPH_H_
