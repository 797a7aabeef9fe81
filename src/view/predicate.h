#ifndef APLUS_VIEW_PREDICATE_H_
#define APLUS_VIEW_PREDICATE_H_

#include <string>
#include <vector>

#include "storage/graph.h"
#include "storage/types.h"
#include "storage/value.h"

namespace aplus {

// Where a property reference in a view predicate points. The reserved
// keywords of the paper's index-definition language (Section III) map as:
//   eadj -> kAdjEdge, vnbr -> kNbrVertex, eb -> kBoundEdge,
//   vs -> kSrcVertex, vd -> kDstVertex.
enum class PropSite : uint8_t {
  kAdjEdge = 0,    // the edge stored in the adjacency list
  kNbrVertex = 1,  // the neighbour vertex the adjacent edge points to
  kBoundEdge = 2,  // the partitioning edge of a 2-hop view
  kSrcVertex = 3,  // source vertex of the (bound) edge
  kDstVertex = 4,  // destination vertex of the (bound) edge
};

const char* ToString(PropSite site);

// A property reference, possibly to the pseudo-properties "label" / "ID".
struct PropRef {
  PropSite site = PropSite::kAdjEdge;
  prop_key_t key = kInvalidPropKey;
  bool is_label = false;  // <site>.label
  bool is_id = false;     // <site>.ID

  bool IsVertexSite() const {
    return site == PropSite::kNbrVertex || site == PropSite::kSrcVertex ||
           site == PropSite::kDstVertex;
  }
  bool operator==(const PropRef& other) const {
    return site == other.site && key == other.key && is_label == other.is_label &&
           is_id == other.is_id;
  }
};

enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* ToString(CmpOp op);
// The comparison `b (op') a` equivalent to `a (op) b`.
CmpOp Flip(CmpOp op);

// One conjunct: `lhs op rhs_const` or `lhs op rhs_ref + rhs_addend`.
// The addend supports the paper's money-flow predicates such as
// eadj.amt < eb.amt + alpha (Example 7 / Figure 5).
struct Comparison {
  PropRef lhs;
  CmpOp op = CmpOp::kEq;
  bool rhs_is_const = true;
  Value rhs_const;
  PropRef rhs_ref;
  int64_t rhs_addend = 0;

  bool IsCrossEdge() const;  // references both kAdjEdge and kBoundEdge
  std::string ToString(const Catalog& catalog) const;
};

// Bindings a predicate is evaluated against. Unused slots stay invalid;
// evaluating a comparison whose site is unbound is a programming error.
struct EvalContext {
  const Graph* graph = nullptr;
  edge_id_t adj_edge = kInvalidEdge;
  vertex_id_t nbr = kInvalidVertex;
  edge_id_t bound_edge = kInvalidEdge;
  vertex_id_t src = kInvalidVertex;
  vertex_id_t dst = kInvalidVertex;
};

// A conjunction of comparisons. Views in the paper are select-only, so a
// flat conjunct list is the complete predicate language (Section III-B).
class Predicate {
 public:
  Predicate() = default;

  static Predicate True() { return Predicate(); }

  Predicate& Add(Comparison cmp) {
    conjuncts_.push_back(std::move(cmp));
    return *this;
  }

  // Convenience builders.
  Predicate& AddConst(PropRef lhs, CmpOp op, Value constant);
  Predicate& AddRef(PropRef lhs, CmpOp op, PropRef rhs, int64_t addend = 0);

  // Back to TRUE, keeping the conjunct storage.
  void Clear() { conjuncts_.clear(); }

  bool IsTrue() const { return conjuncts_.empty(); }
  const std::vector<Comparison>& conjuncts() const { return conjuncts_; }

  // True iff some conjunct compares a kBoundEdge property against a
  // kAdjEdge/kNbrVertex property; edge-partitioned views must satisfy this
  // (Section III-B2, the "Redundant" discussion).
  bool HasCrossEdgeConjunct() const;

  // Evaluates the full conjunction. Any comparison on a null property
  // value is false (nulls live in dedicated partitions / tails instead).
  bool Eval(const EvalContext& ctx) const;

  std::string ToString(const Catalog& catalog) const;

 private:
  std::vector<Comparison> conjuncts_;
};

// `lhs op rhs + addend` under Value::Compare; false when either side is
// null. An integer rhs whose sum with the addend overflows int64 lies
// beyond every int64, so the sign of the addend decides the comparison.
bool EvalValues(CmpOp op, const Value& lhs, Value rhs, int64_t addend);

// Evaluates one comparison under `ctx`.
bool EvalComparison(const Comparison& cmp, const EvalContext& ctx);

// Reads the referenced value (label/ID pseudo-properties included).
Value ReadPropRef(const PropRef& ref, const EvalContext& ctx);

// Applies `op` to an already-computed three-way comparison result.
bool ApplyCmp(CmpOp op, int three_way);

}  // namespace aplus

#endif  // APLUS_VIEW_PREDICATE_H_
