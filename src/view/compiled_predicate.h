#ifndef APLUS_VIEW_COMPILED_PREDICATE_H_
#define APLUS_VIEW_COMPILED_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/graph.h"
#include "view/predicate.h"

namespace aplus {

// A typed property read: the allocation-free counterpart of Value that
// compiled predicates compare (strings point into a column dictionary or
// a predicate constant).
struct Scalar {
  enum class Kind : uint8_t { kNull, kInt, kBool, kDouble, kString };
  Kind kind = Kind::kNull;
  int64_t i = 0;  // kInt (int64 / category / label / ID) and kBool
  double d = 0.0;
  const std::string* s = nullptr;
};

// `lhs op rhs + addend` with Value::Compare's rules (double widening,
// string-only string comparisons, nulls false). An int64 rhs whose sum
// with the addend overflows lies beyond every int64, so the sign of the
// addend decides the comparison.
bool EvalScalars(CmpOp op, const Scalar& lhs, Scalar rhs, int64_t addend);

// A view predicate compiled once against a graph's catalog into typed
// comparisons on the property columns; evaluation never materializes a
// Value. Answers equal Predicate::Eval's for every binding.
//
// Besides whole-binding evaluation, a 2-hop view's conjuncts split into
// three groups so an edge-partitioned build can hoist work out of its
// (eb, eadj) pair loop:
//   - bound side: reads only eb, vs, vd (vs/vd are eb's endpoints);
//     evaluated once per eb by BindBound;
//   - adjacent side: reads only eadj, vnbr; evaluated once per anchor
//     list entry by PassesAdjSide;
//   - cross: compares an adjacent-side operand with a bound-side one;
//     the adjacent operands of a list are gathered once (Gather), the
//     bound ones are folded into per-eb terms (BindBound), and
//     SelectCross runs the typed per-pair loop.
// A conjunct against a constant, or over one side twice, belongs to the
// side it reads.
class CompiledPredicate {
 public:
  // One cross conjunct folded for one eb. Integer comparisons reduce to
  // `adjacent op threshold` over exact integers, or to a constant when
  // the threshold falls outside int64; other types keep eb's operand.
  struct BoundTerm {
    enum class State : uint8_t { kCompare, kAlwaysTrue, kAlwaysFalse };
    State state = State::kCompare;
    CmpOp op = CmpOp::kEq;
    int64_t threshold = 0;
    Scalar bound;
  };
  // Per-eb terms, one per cross conjunct (reused across ebs).
  using BoundTerms = std::vector<BoundTerm>;

  // The adjacent-side operands of the cross conjuncts for a batch of
  // list entries, one column per cross conjunct: int64s for integer
  // comparisons, Scalars otherwise. Only non-null operands are gathered.
  struct AdjBatch {
    struct Column {
      std::vector<int64_t> ints;
      std::vector<Scalar> scalars;
    };
    std::vector<Column> columns;
    uint32_t size = 0;

    void Clear() {
      for (Column& column : columns) {
        column.ints.clear();
        column.scalars.clear();
      }
      size = 0;
    }
  };

  CompiledPredicate() = default;
  CompiledPredicate(const Graph* graph, const Predicate& pred);

  bool IsTrue() const { return conjuncts_.empty(); }

  // The whole conjunction under `ctx` (ctx.graph must be this graph).
  bool Eval(const EvalContext& ctx) const;

  // --- Split evaluation for 2-hop views ---
  // Bound-side conjuncts of eb; false also when a cross conjunct's bound
  // operand is null. On true, `terms` holds eb's cross terms.
  bool BindBound(edge_id_t eb, BoundTerms* terms) const;
  // Adjacent-side conjuncts of (eadj, vnbr); false also when a cross
  // conjunct's adjacent operand is null.
  bool PassesAdjSide(edge_id_t eadj, vertex_id_t nbr) const;
  // Appends (eadj, vnbr)'s cross operands to `batch`; only for entries
  // that pass PassesAdjSide.
  void Gather(edge_id_t eadj, vertex_id_t nbr, AdjBatch* batch) const;
  // Writes the positions of `batch` that pass every cross conjunct under
  // `terms` to `sel` (room for batch.size) in ascending order; returns
  // their count.
  uint32_t SelectCross(const BoundTerms& terms, const AdjBatch& batch, uint32_t* sel) const;

 private:
  // kNone: a constant operand; kCross: a conjunct reading both sides.
  enum class Side : uint8_t { kNone, kBound, kAdj, kCross };

  struct Operand {
    // kNull: a property of the other target kind, or an unknown key,
    // which reads as null everywhere (as PropertyStore::Get does).
    enum class Source : uint8_t { kNull, kConst, kLabel, kId, kColumn };
    Source source = Source::kConst;
    PropSite site = PropSite::kAdjEdge;
    bool vertex = false;
    bool is_int = false;  // reads as an integer (or null) whatever the row
    prop_key_t key = kInvalidPropKey;
    const PropertyColumn* column = nullptr;  // resolved at compile time when present
    Value constant;
  };

  struct Conjunct {
    Operand lhs;
    Operand rhs;
    CmpOp op = CmpOp::kEq;
    int64_t addend = 0;
    bool ints = false;  // both operands integers: exact int64 path
    Side side = Side::kNone;
    bool adj_is_lhs = false;  // cross conjuncts: which operand is adjacent
  };

  Operand CompileOperand(const PropRef& ref) const;
  static Operand CompileConstant(const Value& value);
  Side SideOf(const Operand& operand) const;

  const PropertyColumn* ColumnOf(const Operand& operand) const;
  Scalar Read(const Operand& operand, uint64_t id) const;
  // Integer read; false when the operand is null.
  bool ReadInt(const Operand& operand, uint64_t id, int64_t* out) const;
  bool EvalConjunct(const Conjunct& c, uint64_t lhs_id, uint64_t rhs_id) const;
  // The id an operand of a bound- or adjacent-side conjunct reads.
  uint64_t BoundId(const Operand& operand, edge_id_t eb) const;
  static uint64_t AdjId(const Operand& operand, edge_id_t eadj, vertex_id_t nbr);

  const Graph* graph_ = nullptr;
  std::vector<Conjunct> conjuncts_;  // in predicate order
  std::vector<uint32_t> bound_;      // indexes into conjuncts_ by group
  std::vector<uint32_t> adj_;
  // Cross conjuncts, integer ones first: SelectCross's cheap filters run
  // before the per-pair Scalar comparisons.
  std::vector<uint32_t> cross_;
};

}  // namespace aplus

#endif  // APLUS_VIEW_COMPILED_PREDICATE_H_
