#include "view/compiled_predicate.h"

#include <functional>

#include "util/logging.h"

namespace aplus {
namespace {

using Kind = Scalar::Kind;

int ThreeWay(int64_t x, int64_t y) { return x < y ? -1 : (x == y ? 0 : 1); }

double AsDouble(const Scalar& s) {
  if (s.kind == Kind::kDouble) return s.d;
  APLUS_CHECK(s.kind == Kind::kInt) << "cannot compare a bool with a double";
  return static_cast<double>(s.i);
}

// Value::Compare over two non-null Scalars.
int CompareScalars(const Scalar& a, const Scalar& b) {
  if (a.kind == Kind::kString || b.kind == Kind::kString) {
    APLUS_CHECK(a.kind == b.kind) << "cannot compare string with non-string";
    int c = a.s->compare(*b.s);
    return c < 0 ? -1 : (c == 0 ? 0 : 1);
  }
  if (a.kind == Kind::kDouble || b.kind == Kind::kDouble) {
    double x = AsDouble(a);
    double y = AsDouble(b);
    return x < y ? -1 : (x == y ? 0 : 1);
  }
  return ThreeWay(a.i, b.i);
}

// Three-way comparison of lhs against the exact sum rhs + addend.
int CompareIntPlus(int64_t lhs, int64_t rhs, int64_t addend) {
  int64_t sum;
  if (__builtin_add_overflow(rhs, addend, &sum)) return addend > 0 ? -1 : 1;
  return ThreeWay(lhs, sum);
}

// Keeps the positions j (all of [0, n) when `identity`, else sel[0, n))
// whose value passes `cmp` against `t`; returns how many remain in sel.
template <typename Cmp>
uint32_t FilterInts(const int64_t* vals, int64_t t, bool identity, uint32_t* sel, uint32_t n,
                    Cmp cmp) {
  uint32_t out = 0;
  if (identity) {
    for (uint32_t j = 0; j < n; ++j) {
      sel[out] = j;
      out += cmp(vals[j], t) ? 1 : 0;
    }
  } else {
    for (uint32_t k = 0; k < n; ++k) {
      uint32_t j = sel[k];
      sel[out] = j;
      out += cmp(vals[j], t) ? 1 : 0;
    }
  }
  return out;
}

uint32_t FilterInts(const int64_t* vals, CmpOp op, int64_t t, bool identity, uint32_t* sel,
                    uint32_t n) {
  switch (op) {
    case CmpOp::kEq:
      return FilterInts(vals, t, identity, sel, n, std::equal_to<int64_t>());
    case CmpOp::kNe:
      return FilterInts(vals, t, identity, sel, n, std::not_equal_to<int64_t>());
    case CmpOp::kLt:
      return FilterInts(vals, t, identity, sel, n, std::less<int64_t>());
    case CmpOp::kLe:
      return FilterInts(vals, t, identity, sel, n, std::less_equal<int64_t>());
    case CmpOp::kGt:
      return FilterInts(vals, t, identity, sel, n, std::greater<int64_t>());
    case CmpOp::kGe:
      return FilterInts(vals, t, identity, sel, n, std::greater_equal<int64_t>());
  }
  return 0;
}

bool IsIntType(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kCategory || type == ValueType::kBool;
}

}  // namespace

bool EvalScalars(CmpOp op, const Scalar& lhs, Scalar rhs, int64_t addend) {
  if (lhs.kind == Kind::kNull || rhs.kind == Kind::kNull) return false;
  if (addend != 0) {
    if (rhs.kind == Kind::kDouble) {
      rhs.d += static_cast<double>(addend);
    } else {
      APLUS_CHECK(rhs.kind == Kind::kInt || rhs.kind == Kind::kBool)
          << "addend on a non-numeric operand";
      int64_t sum;
      if (__builtin_add_overflow(rhs.i, addend, &sum)) return ApplyCmp(op, addend > 0 ? -1 : 1);
      rhs.kind = Kind::kInt;
      rhs.i = sum;
    }
  }
  return ApplyCmp(op, CompareScalars(lhs, rhs));
}

CompiledPredicate::CompiledPredicate(const Graph* graph, const Predicate& pred) : graph_(graph) {
  for (const Comparison& cmp : pred.conjuncts()) {
    Conjunct c;
    c.lhs = CompileOperand(cmp.lhs);
    c.rhs = cmp.rhs_is_const ? CompileConstant(cmp.rhs_const) : CompileOperand(cmp.rhs_ref);
    c.op = cmp.op;
    c.addend = cmp.rhs_is_const ? 0 : cmp.rhs_addend;
    c.ints = c.lhs.is_int && c.rhs.is_int;
    Side lhs_side = SideOf(c.lhs);
    Side rhs_side = SideOf(c.rhs);
    if (rhs_side == Side::kNone || rhs_side == lhs_side) {
      c.side = lhs_side;
    } else {
      c.side = Side::kCross;
      c.adj_is_lhs = lhs_side == Side::kAdj;
    }
    conjuncts_.push_back(std::move(c));
  }
  for (uint32_t q = 0; q < conjuncts_.size(); ++q) {
    if (conjuncts_[q].side == Side::kBound) bound_.push_back(q);
    if (conjuncts_[q].side == Side::kAdj) adj_.push_back(q);
  }
  for (bool ints : {true, false}) {
    for (uint32_t q = 0; q < conjuncts_.size(); ++q) {
      if (conjuncts_[q].side == Side::kCross && conjuncts_[q].ints == ints) cross_.push_back(q);
    }
  }
}

CompiledPredicate::Operand CompiledPredicate::CompileOperand(const PropRef& ref) const {
  Operand op;
  op.site = ref.site;
  op.vertex = ref.IsVertexSite();
  if (ref.is_label || ref.is_id) {
    op.source = ref.is_label ? Operand::Source::kLabel : Operand::Source::kId;
    op.is_int = true;
    return op;
  }
  const Catalog& catalog = graph_->catalog();
  PropTargetKind target = op.vertex ? PropTargetKind::kVertex : PropTargetKind::kEdge;
  if (ref.key >= catalog.num_properties() || catalog.property(ref.key).target != target) {
    op.source = Operand::Source::kNull;
    return op;
  }
  op.source = Operand::Source::kColumn;
  op.key = ref.key;
  op.is_int = IsIntType(catalog.property(ref.key).type);
  op.column = ColumnOf(op);
  return op;
}

CompiledPredicate::Operand CompiledPredicate::CompileConstant(const Value& value) {
  Operand op;
  op.source = Operand::Source::kConst;
  op.is_int = IsIntType(value.type());
  op.constant = value;
  return op;
}

CompiledPredicate::Side CompiledPredicate::SideOf(const Operand& operand) const {
  if (operand.source == Operand::Source::kConst) return Side::kNone;
  return operand.site == PropSite::kAdjEdge || operand.site == PropSite::kNbrVertex
             ? Side::kAdj
             : Side::kBound;
}

const PropertyColumn* CompiledPredicate::ColumnOf(const Operand& operand) const {
  if (operand.column != nullptr) return operand.column;
  // A column created after compilation (columns are never destroyed).
  const PropertyStore& store = operand.vertex ? graph_->vertex_props() : graph_->edge_props();
  return store.column(operand.key);
}

Scalar CompiledPredicate::Read(const Operand& operand, uint64_t id) const {
  Scalar out;
  switch (operand.source) {
    case Operand::Source::kNull:
      break;
    case Operand::Source::kConst: {
      const Value& v = operand.constant;
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kInt64:
        case ValueType::kCategory:
          out.kind = Kind::kInt;
          out.i = v.AsInt64();
          break;
        case ValueType::kBool:
          out.kind = Kind::kBool;
          out.i = v.AsInt64();
          break;
        case ValueType::kDouble:
          out.kind = Kind::kDouble;
          out.d = v.AsDouble();
          break;
        case ValueType::kString:
          out.kind = Kind::kString;
          out.s = &v.AsString();
          break;
      }
      break;
    }
    case Operand::Source::kLabel:
      out.kind = Kind::kInt;
      out.i = operand.vertex ? graph_->vertex_label(static_cast<vertex_id_t>(id))
                             : graph_->edge_label(id);
      break;
    case Operand::Source::kId:
      out.kind = Kind::kInt;
      out.i = static_cast<int64_t>(id);
      break;
    case Operand::Source::kColumn: {
      const PropertyColumn* col = ColumnOf(operand);
      if (col == nullptr || id >= col->size() || col->IsNull(id)) break;
      switch (col->type()) {
        case ValueType::kInt64:
        case ValueType::kCategory:
          out.kind = Kind::kInt;
          out.i = col->GetInt64(id);
          break;
        case ValueType::kBool:
          out.kind = Kind::kBool;
          out.i = col->GetInt64(id);
          break;
        case ValueType::kDouble:
          out.kind = Kind::kDouble;
          out.d = col->GetDouble(id);
          break;
        case ValueType::kString:
          out.kind = Kind::kString;
          out.s = &col->GetString(id);
          break;
        case ValueType::kNull:
          break;
      }
      break;
    }
  }
  return out;
}

bool CompiledPredicate::ReadInt(const Operand& operand, uint64_t id, int64_t* out) const {
  switch (operand.source) {
    case Operand::Source::kConst:
      *out = operand.constant.AsInt64();
      return true;
    case Operand::Source::kLabel:
      *out = operand.vertex ? graph_->vertex_label(static_cast<vertex_id_t>(id))
                            : graph_->edge_label(id);
      return true;
    case Operand::Source::kId:
      *out = static_cast<int64_t>(id);
      return true;
    case Operand::Source::kColumn: {
      const PropertyColumn* col = ColumnOf(operand);
      if (col == nullptr || id >= col->size() || col->IsNull(id)) return false;
      *out = col->GetInt64(id);
      return true;
    }
    case Operand::Source::kNull:
      break;
  }
  return false;
}

bool CompiledPredicate::EvalConjunct(const Conjunct& c, uint64_t lhs_id, uint64_t rhs_id) const {
  if (c.ints) {
    int64_t lhs;
    int64_t rhs;
    if (!ReadInt(c.lhs, lhs_id, &lhs) || !ReadInt(c.rhs, rhs_id, &rhs)) return false;
    return ApplyCmp(c.op, CompareIntPlus(lhs, rhs, c.addend));
  }
  return EvalScalars(c.op, Read(c.lhs, lhs_id), Read(c.rhs, rhs_id), c.addend);
}

bool CompiledPredicate::Eval(const EvalContext& ctx) const {
  auto id_of = [&ctx](const Operand& operand) -> uint64_t {
    switch (operand.site) {
      case PropSite::kAdjEdge:
        return ctx.adj_edge;
      case PropSite::kNbrVertex:
        return ctx.nbr;
      case PropSite::kBoundEdge:
        return ctx.bound_edge;
      case PropSite::kSrcVertex:
        return ctx.src;
      case PropSite::kDstVertex:
        return ctx.dst;
    }
    return 0;
  };
  for (const Conjunct& c : conjuncts_) {
    if (!EvalConjunct(c, id_of(c.lhs), id_of(c.rhs))) return false;
  }
  return true;
}

uint64_t CompiledPredicate::BoundId(const Operand& operand, edge_id_t eb) const {
  switch (operand.site) {
    case PropSite::kSrcVertex:
      return graph_->edge_src(eb);
    case PropSite::kDstVertex:
      return graph_->edge_dst(eb);
    default:
      return eb;
  }
}

uint64_t CompiledPredicate::AdjId(const Operand& operand, edge_id_t eadj, vertex_id_t nbr) {
  return operand.site == PropSite::kNbrVertex ? nbr : eadj;
}

bool CompiledPredicate::BindBound(edge_id_t eb, BoundTerms* terms) const {
  for (uint32_t q : bound_) {
    const Conjunct& c = conjuncts_[q];
    if (!EvalConjunct(c, BoundId(c.lhs, eb), BoundId(c.rhs, eb))) return false;
  }
  terms->resize(cross_.size());
  for (size_t k = 0; k < cross_.size(); ++k) {
    const Conjunct& c = conjuncts_[cross_[k]];
    const Operand& operand = c.adj_is_lhs ? c.rhs : c.lhs;
    BoundTerm& term = (*terms)[k];
    term.state = BoundTerm::State::kCompare;
    if (!c.ints) {
      term.bound = Read(operand, BoundId(operand, eb));
      if (term.bound.kind == Kind::kNull) return false;
      continue;
    }
    int64_t b;
    if (!ReadInt(operand, BoundId(operand, eb), &b)) return false;
    // adj op b + addend, or b op adj + addend, i.e. adj Flip(op) b - addend:
    // exact over the integers, so a threshold past int64 fixes the answer.
    int64_t threshold;
    bool overflow;
    int beyond;  // the sign of the out-of-range threshold
    if (c.adj_is_lhs) {
      term.op = c.op;
      overflow = __builtin_add_overflow(b, c.addend, &threshold);
      beyond = c.addend > 0 ? 1 : -1;
    } else {
      term.op = Flip(c.op);
      overflow = __builtin_sub_overflow(b, c.addend, &threshold);
      beyond = c.addend < 0 ? 1 : -1;
    }
    if (overflow) {
      term.state = ApplyCmp(term.op, -beyond) ? BoundTerm::State::kAlwaysTrue
                                              : BoundTerm::State::kAlwaysFalse;
    }
    term.threshold = threshold;
  }
  return true;
}

bool CompiledPredicate::PassesAdjSide(edge_id_t eadj, vertex_id_t nbr) const {
  for (uint32_t q : adj_) {
    const Conjunct& c = conjuncts_[q];
    if (!EvalConjunct(c, AdjId(c.lhs, eadj, nbr), AdjId(c.rhs, eadj, nbr))) return false;
  }
  for (uint32_t q : cross_) {
    const Conjunct& c = conjuncts_[q];
    const Operand& operand = c.adj_is_lhs ? c.lhs : c.rhs;
    uint64_t id = AdjId(operand, eadj, nbr);
    if (c.ints) {
      int64_t unused;
      if (!ReadInt(operand, id, &unused)) return false;
    } else if (Read(operand, id).kind == Kind::kNull) {
      return false;
    }
  }
  return true;
}

void CompiledPredicate::Gather(edge_id_t eadj, vertex_id_t nbr, AdjBatch* batch) const {
  if (batch->columns.size() < cross_.size()) batch->columns.resize(cross_.size());
  for (size_t k = 0; k < cross_.size(); ++k) {
    const Conjunct& c = conjuncts_[cross_[k]];
    const Operand& operand = c.adj_is_lhs ? c.lhs : c.rhs;
    uint64_t id = AdjId(operand, eadj, nbr);
    if (c.ints) {
      int64_t value = 0;
      ReadInt(operand, id, &value);
      batch->columns[k].ints.push_back(value);
    } else {
      batch->columns[k].scalars.push_back(Read(operand, id));
    }
  }
  batch->size++;
}

uint32_t CompiledPredicate::SelectCross(const BoundTerms& terms, const AdjBatch& batch,
                                        uint32_t* sel) const {
  uint32_t n = batch.size;
  bool identity = true;  // sel still implicitly holds 0..n-1
  for (size_t k = 0; k < cross_.size() && n > 0; ++k) {
    const BoundTerm& term = terms[k];
    if (term.state == BoundTerm::State::kAlwaysFalse) return 0;
    if (term.state == BoundTerm::State::kAlwaysTrue) continue;
    const Conjunct& c = conjuncts_[cross_[k]];
    const AdjBatch::Column& column = batch.columns[k];
    if (c.ints) {
      n = FilterInts(column.ints.data(), term.op, term.threshold, identity, sel, n);
    } else {
      uint32_t out = 0;
      for (uint32_t x = 0; x < n; ++x) {
        uint32_t j = identity ? x : sel[x];
        const Scalar& adj = column.scalars[j];
        bool pass = c.adj_is_lhs ? EvalScalars(c.op, adj, term.bound, c.addend)
                                 : EvalScalars(c.op, term.bound, adj, c.addend);
        sel[out] = j;
        out += pass ? 1 : 0;
      }
      n = out;
    }
    identity = false;
  }
  if (identity) {
    for (uint32_t j = 0; j < n; ++j) sel[j] = j;
  }
  return n;
}

}  // namespace aplus
