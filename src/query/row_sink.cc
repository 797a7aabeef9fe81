#include "query/row_sink.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace aplus {

namespace {

// FNV-1a style mixing for group-key hashing. Strings hash by dictionary
// pointer: PropertyColumn dictionary-encodes strings, so equal values in
// one column share one canonical std::string object.
inline uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

// Canonical bit pattern of a double for group-key hashing AND equality:
// -0.0 folds into +0.0 (they compare equal, so they must group
// together) and every NaN payload collapses to one pattern (NaN != NaN
// numerically, yet one group per NaN row would leak a table entry per
// input row — SQL groups nulls together and we extend that to NaNs).
inline uint64_t CanonicalDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  if (d != d) return 0x7ff8000000000000ull;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Payload bits of cell `row` of a typed column triple (used for both
// RowBatch columns and the stage arenas, which share the layout).
// Doubles canonicalize, so bit equality of CellBits IS group-key
// equality for every type (strings by dictionary pointer).
template <typename Col>
inline uint64_t CellBits(const Col& col, ValueType type, uint32_t row) {
  switch (type) {
    case ValueType::kDouble:
      return CanonicalDoubleBits(col.doubles[row]);
    case ValueType::kString:
      return reinterpret_cast<uint64_t>(col.strings[row]);
    default:
      return static_cast<uint64_t>(col.ints[row]);
  }
}

// NaN-aware double ordering shared by the MIN/MAX accumulators: numbers
// order below NaN (matching the SortStage comparator), so MIN/MAX
// results are identical for every accumulation/merge order even when
// the data contains NaNs.
inline bool DoubleLess(double a, double b) {
  bool a_nan = a != a;
  bool b_nan = b != b;
  if (a_nan || b_nan) return !a_nan && b_nan;
  return a < b;
}

// Appends cell `row` of a typed source column (RowBatch::Column or
// ColumnArena — shared layout) to output column `out_col`, null-aware.
// The single copy every stage's emission path goes through.
template <typename Col>
inline void AppendCell(RowBatch* out, size_t out_col, const Col& src, uint32_t row) {
  if (src.nulls[row] != 0) {
    out->AppendNull(out_col);
    return;
  }
  switch (src.type) {
    case ValueType::kDouble:
      out->AppendDouble(out_col, src.doubles[row]);
      break;
    case ValueType::kString:
      out->AppendString(out_col, src.strings[row]);
      break;
    default:
      out->AppendInt(out_col, src.ints[row]);
      break;
  }
}

}  // namespace

void RowBatch::Init(const std::vector<ProjectColumn>& cols, uint32_t capacity) {
  capacity_ = capacity;
  num_rows_ = 0;
  cols_.clear();
  cols_.reserve(cols.size());
  for (const ProjectColumn& col : cols) {
    Column out;
    out.name = col.name;
    out.type = col.ref.is_id ? ValueType::kInt64 : col.type;
    out.nulls.reserve(capacity);
    switch (out.type) {
      case ValueType::kDouble:
        out.doubles.reserve(capacity);
        break;
      case ValueType::kString:
        out.strings.reserve(capacity);
        break;
      default:
        out.ints.reserve(capacity);
        break;
    }
    cols_.push_back(std::move(out));
  }
}

void RowBatch::Clear() {
  num_rows_ = 0;
  for (Column& col : cols_) {
    col.ints.clear();
    col.doubles.clear();
    col.strings.clear();
    col.nulls.clear();
  }
}

void RowBatch::AppendNull(size_t col) {
  Column& c = cols_[col];
  c.nulls.push_back(1);
  switch (c.type) {
    case ValueType::kDouble:
      c.doubles.push_back(0.0);
      break;
    case ValueType::kString:
      c.strings.push_back(nullptr);
      break;
    default:
      c.ints.push_back(0);
      break;
  }
}

Value RowBatch::Cell(size_t col, uint32_t row) const {
  const Column& c = cols_[col];
  if (c.nulls[row] != 0) return Value::Null();
  switch (c.type) {
    case ValueType::kDouble:
      return Value::Double(c.doubles[row]);
    case ValueType::kString:
      return Value::String(*c.strings[row]);
    case ValueType::kBool:
      return Value::Bool(c.ints[row] != 0);
    case ValueType::kCategory:
      return Value::Category(c.ints[row]);
    default:
      return Value::Int64(c.ints[row]);
  }
}

void SinkStage::MergeAll(SinkStage* const* workers, int num_workers, int num_threads) {
  (void)num_threads;
  for (int w = 0; w < num_workers; ++w) Merge(*workers[w]);
}

void SinkStage::Deliver(RowBatch* batch) {
  if (batch->empty()) return;
  if (next_ != nullptr) {
    next_->OnBatch(*batch);
  } else {
    controls_->rows_emitted += batch->num_rows();
    if (controls_->consumer != nullptr) controls_->consumer->OnBatch(*batch);
  }
  batch->Clear();
}

// --- GroupedAggregateStage ---

GroupedAggregateStage::GroupedAggregateStage(std::vector<AggSpec> specs,
                                             std::vector<ValueType> input_types,
                                             uint32_t batch_capacity, ExecControls* controls)
    : SinkStage(controls),
      specs_(std::move(specs)),
      input_types_(std::move(input_types)),
      batch_capacity_(batch_capacity < 1 ? 1 : batch_capacity) {
  std::vector<ProjectColumn> out_schema;
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    ProjectColumn col;
    col.name = spec.name;
    if (spec.fn == AggFn::kNone) {
      APLUS_CHECK_GE(spec.input, 0);
      col.type = input_types_[spec.input];
      key_inputs_.push_back(spec.input);
      ColumnArena arena;
      arena.type = col.type;
      keys_.push_back(std::move(arena));
    } else {
      col.type = spec.out_type;
      agg_specs_.push_back(static_cast<uint32_t>(s));
      accs_.emplace_back();
      if (spec.input >= 0) needs_row_scan_ = true;
    }
    out_schema.push_back(std::move(col));
  }
  out_.Init(out_schema, batch_capacity_);
  // Estimated arena footprint of one group: per key ~8 bytes payload +
  // 1 null byte, per accumulator ints + doubles + counts, plus the
  // open-addressing slot at <= 50% load. An estimate is enough — the
  // mem-cap guards against runaway growth, not byte-exact accounting.
  bytes_per_group_ = keys_.size() * 9 + accs_.size() * 24 + 2 * sizeof(uint32_t);
  Reset();
}

std::unique_ptr<SinkStage> GroupedAggregateStage::Clone() const {
  return std::make_unique<GroupedAggregateStage>(specs_, input_types_, batch_capacity_,
                                                 controls_);
}

void GroupedAggregateStage::Reset() {
  num_groups_ = 0;
  merged_parts_ = 0;
  for (ColumnArena& arena : keys_) {
    arena.ints.clear();
    arena.doubles.clear();
    arena.strings.clear();
    arena.nulls.clear();
  }
  for (AccArena& acc : accs_) {
    acc.ints.clear();
    acc.doubles.clear();
    acc.counts.clear();
  }
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  out_.Clear();
  EnsureGlobalGroup();
}

void GroupedAggregateStage::EnsureGlobalGroup() {
  // A global aggregate (no group keys) emits exactly one row even on
  // empty input: materialize its group up front.
  if (!key_inputs_.empty() || num_groups_ > 0) return;
  for (AccArena& acc : accs_) {
    acc.ints.push_back(0);
    acc.doubles.push_back(0.0);
    acc.counts.push_back(0);
  }
  num_groups_ = 1;
}

template <typename ColFn>
uint64_t GroupedAggregateStage::HashKeys(ColFn&& col_of, uint32_t row) const {
  uint64_t h = 14695981039346656037ull;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const auto& col = col_of(k);
    // All nulls group together (SQL GROUP BY semantics).
    h = MixHash(h, col.nulls[row] != 0 ? 0x6e756c6cull : CellBits(col, keys_[k].type, row));
  }
  return h;
}

uint64_t GroupedAggregateStage::HashGroup(uint32_t group) const {
  return HashKeys([this](size_t k) -> const ColumnArena& { return keys_[k]; }, group);
}

template <typename ColFn>
bool GroupedAggregateStage::GroupEquals(uint32_t group, ColFn&& col_of, uint32_t row) const {
  for (size_t k = 0; k < keys_.size(); ++k) {
    const ColumnArena& arena = keys_[k];
    const auto& col = col_of(k);
    bool a_null = arena.nulls[group] != 0;
    bool b_null = col.nulls[row] != 0;
    if (a_null != b_null) return false;
    if (a_null) continue;
    // Canonicalized payload bits are the equality relation (matches the
    // hash by construction: +/-0.0 and all NaNs unify).
    if (CellBits(arena, arena.type, group) != CellBits(col, arena.type, row)) return false;
  }
  return true;
}

void GroupedAggregateStage::GrowSlots() {
  size_t cap = slots_.size() < 16 ? 16 : slots_.size() * 2;
  slots_.assign(cap, kEmptySlot);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    uint64_t h = HashGroup(g);
    size_t i = h & (cap - 1);
    while (slots_[i] != kEmptySlot) i = (i + 1) & (cap - 1);
    slots_[i] = g;
  }
}

template <typename ColFn>
void GroupedAggregateStage::AppendKey(ColFn&& col_of, uint32_t row) {
  for (size_t k = 0; k < keys_.size(); ++k) {
    ColumnArena& arena = keys_[k];
    const auto& col = col_of(k);
    bool is_null = col.nulls[row] != 0;
    arena.nulls.push_back(is_null ? 1 : 0);
    switch (arena.type) {
      case ValueType::kDouble:
        arena.doubles.push_back(is_null ? 0.0 : col.doubles[row]);
        break;
      case ValueType::kString:
        arena.strings.push_back(is_null ? nullptr : col.strings[row]);
        break;
      default:
        arena.ints.push_back(is_null ? 0 : col.ints[row]);
        break;
    }
  }
  for (AccArena& acc : accs_) {
    acc.ints.push_back(0);
    acc.doubles.push_back(0.0);
    acc.counts.push_back(0);
  }
  ++num_groups_;
  if (track_mem_) {
    // First replica over the budget stops the scans; every OnBatch
    // (including the other workers') discards input from here on.
    controls_->ChargeOrStop(bytes_per_group_);
  }
}

template <typename ColFn>
uint32_t GroupedAggregateStage::FindOrAddGroup(ColFn&& col_of, uint32_t row, uint64_t hash) {
  if ((num_groups_ + 1) * 2 > slots_.size()) GrowSlots();
  size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != kEmptySlot) {
    if (GroupEquals(slots_[i], col_of, row)) return slots_[i];
    i = (i + 1) & mask;
  }
  uint32_t g = static_cast<uint32_t>(num_groups_);
  slots_[i] = g;
  AppendKey(col_of, row);
  return g;
}

void GroupedAggregateStage::AccumulateRow(uint32_t group, const RowBatch& batch, uint32_t row) {
  for (size_t j = 0; j < agg_specs_.size(); ++j) {
    const AggSpec& spec = specs_[agg_specs_[j]];
    AccArena& acc = accs_[j];
    if (spec.input < 0) {  // COUNT(*)
      acc.counts[group]++;
      continue;
    }
    const RowBatch::Column& col = batch.column(static_cast<size_t>(spec.input));
    if (col.nulls[row] != 0) continue;  // aggregates skip null cells
    bool is_double = col.type == ValueType::kDouble;
    switch (spec.fn) {
      case AggFn::kCount:
        acc.counts[group]++;
        break;
      case AggFn::kSum:
        if (is_double) {
          acc.doubles[group] += col.doubles[row];
        } else {
          acc.ints[group] += col.ints[row];
        }
        acc.counts[group]++;
        break;
      case AggFn::kAvg:
        acc.doubles[group] += is_double ? col.doubles[row] : static_cast<double>(col.ints[row]);
        acc.counts[group]++;
        break;
      case AggFn::kMin:
      case AggFn::kMax: {
        bool take = acc.counts[group] == 0;
        if (is_double) {
          double v = col.doubles[row];
          if (take || (spec.fn == AggFn::kMin ? DoubleLess(v, acc.doubles[group])
                                              : DoubleLess(acc.doubles[group], v))) {
            acc.doubles[group] = v;
          }
        } else {
          int64_t v = col.ints[row];
          if (take ||
              (spec.fn == AggFn::kMin ? v < acc.ints[group] : v > acc.ints[group])) {
            acc.ints[group] = v;
          }
        }
        acc.counts[group]++;
        break;
      }
      case AggFn::kNone:
        break;
    }
  }
}

void GroupedAggregateStage::OnBatch(const RowBatch& batch) {
  // A requested stop (budget exhaustion, deadline, cancel) discards
  // further input: the execution is already failing or winding down.
  if (controls_->token.stop_requested()) return;
  if (key_inputs_.empty()) {
    if (!needs_row_scan_) {
      // Pure COUNT(*): no cell reads, no null checks — one add per batch.
      for (AccArena& acc : accs_) acc.counts[0] += batch.num_rows();
      return;
    }
    for (uint32_t r = 0; r < batch.num_rows(); ++r) AccumulateRow(0, batch, r);
    return;
  }
  auto input_col = [this, &batch](size_t k) -> const RowBatch::Column& {
    return batch.column(static_cast<size_t>(key_inputs_[k]));
  };
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    uint32_t g = FindOrAddGroup(input_col, r, HashKeys(input_col, r));
    AccumulateRow(g, batch, r);
  }
}

void GroupedAggregateStage::FoldGroupFrom(uint32_t g, const GroupedAggregateStage& src_stage,
                                          uint32_t og) {
  for (size_t j = 0; j < agg_specs_.size(); ++j) {
    const AggSpec& spec = specs_[agg_specs_[j]];
    AccArena& acc = accs_[j];
    const AccArena& src = src_stage.accs_[j];
    if (src.counts[og] == 0) continue;
    switch (spec.fn) {
      case AggFn::kMin:
      case AggFn::kMax: {
        bool min = spec.fn == AggFn::kMin;
        if (acc.counts[g] == 0) {
          acc.ints[g] = src.ints[og];
          acc.doubles[g] = src.doubles[og];
        } else {
          acc.ints[g] = min ? std::min(acc.ints[g], src.ints[og])
                            : std::max(acc.ints[g], src.ints[og]);
          bool src_wins = min ? DoubleLess(src.doubles[og], acc.doubles[g])
                              : DoubleLess(acc.doubles[g], src.doubles[og]);
          if (src_wins) acc.doubles[g] = src.doubles[og];
        }
        break;
      }
      default:
        acc.ints[g] += src.ints[og];
        acc.doubles[g] += src.doubles[og];
        break;
    }
    acc.counts[g] += src.counts[og];
  }
}

void GroupedAggregateStage::Merge(SinkStage& worker) {
  auto& other = static_cast<GroupedAggregateStage&>(worker);
  auto other_col = [&other](size_t k) -> const ColumnArena& { return other.keys_[k]; };
  for (uint32_t og = 0; og < other.num_groups_; ++og) {
    uint32_t g = key_inputs_.empty() ? 0 : FindOrAddGroup(other_col, og, other.HashGroup(og));
    FoldGroupFrom(g, other, og);
  }
}

void GroupedAggregateStage::MergePartitionFrom(const GroupedAggregateStage& src,
                                               uint32_t num_parts, uint32_t part) {
  auto src_col = [&src](size_t k) -> const ColumnArena& { return src.keys_[k]; };
  for (uint32_t og = 0; og < src.num_groups_; ++og) {
    uint64_t h = src.HashGroup(og);
    if (h % num_parts != part) continue;
    FoldGroupFrom(FindOrAddGroup(src_col, og, h), src, og);
  }
}

void GroupedAggregateStage::MergeAll(SinkStage* const* workers, int num_workers,
                                     int num_threads) {
  merged_parts_ = 0;
  size_t total = num_groups_;
  for (int w = 0; w < num_workers; ++w) {
    total += static_cast<const GroupedAggregateStage&>(*workers[w]).num_groups_;
  }
  // Small folds, global aggregates (one group), and serial merges take
  // the plain path; the partitioned fan-out only pays off when the k
  // tables carry real group volume.
  if (num_threads <= 1 || num_workers == 0 || key_inputs_.empty() ||
      total < kParallelMergeMinGroups) {
    SinkStage::MergeAll(workers, num_workers, num_threads);
    return;
  }
  int p = num_threads < 64 ? num_threads : 64;
  while (static_cast<int>(parts_.size()) < p) {
    auto part = std::unique_ptr<GroupedAggregateStage>(
        new GroupedAggregateStage(specs_, input_types_, batch_capacity_, controls_));
    // Partitions re-materialize groups the source tables already charged
    // against the group-by memory cap: charging them again would double
    // count.
    part->track_mem_ = false;
    parts_.push_back(std::move(part));
  }
  for (int i = 0; i < p; ++i) parts_[i]->Reset();
  auto body = [this, workers, num_workers, p](int part) {
    GroupedAggregateStage& dst = *parts_[part];
    dst.MergePartitionFrom(*this, static_cast<uint32_t>(p), static_cast<uint32_t>(part));
    for (int w = 0; w < num_workers; ++w) {
      dst.MergePartitionFrom(static_cast<const GroupedAggregateStage&>(*workers[w]),
                             static_cast<uint32_t>(p), static_cast<uint32_t>(part));
    }
  };
  ThreadPool::Global().ParallelRun(p, body);
  merged_parts_ = p;
}

void GroupedAggregateStage::EmitGroupsFrom(const GroupedAggregateStage& src) {
  for (uint32_t g = 0; g < src.num_groups_; ++g) {
    // A drained downstream LIMIT discards everything else: stop
    // materializing output rows nobody consumes (e.g. GROUP BY hub-heavy
    // keys with LIMIT 5 but no ORDER BY).
    if (next_ != nullptr && next_->Done()) break;
    // Staged plans never raise kLimit, so a stop here is a deadline /
    // cancel / exhaustion landing mid-Finish: abandon the cascade.
    if ((g & 255u) == 0 && controls_->token.PollClock()) return;
    size_t key_i = 0;
    size_t agg_i = 0;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggSpec& spec = specs_[s];
      if (spec.fn == AggFn::kNone) {
        AppendCell(&out_, s, src.keys_[key_i++], g);
        continue;
      }
      const AccArena& acc = src.accs_[agg_i++];
      switch (spec.fn) {
        case AggFn::kCount:
          out_.AppendInt(s, acc.counts[g]);
          break;
        case AggFn::kSum:
        case AggFn::kMin:
        case AggFn::kMax:
          if (acc.counts[g] == 0) {
            out_.AppendNull(s);  // all-null (or empty) group
          } else if (spec.out_type == ValueType::kDouble) {
            out_.AppendDouble(s, acc.doubles[g]);
          } else {
            out_.AppendInt(s, acc.ints[g]);
          }
          break;
        case AggFn::kAvg:
          if (acc.counts[g] == 0) {
            out_.AppendNull(s);
          } else {
            out_.AppendDouble(s, acc.doubles[g] / static_cast<double>(acc.counts[g]));
          }
          break;
        case AggFn::kNone:
          break;
      }
    }
    out_.AdvanceRow();
    if (out_.full()) Deliver(&out_);
  }
}

void GroupedAggregateStage::Finish() {
  if (merged_parts_ > 0) {
    // The last merge was partitioned: the partitions hold the complete
    // fold (this stage's own table was one of the sources).
    for (int i = 0; i < merged_parts_; ++i) EmitGroupsFrom(*parts_[i]);
  } else {
    EmitGroupsFrom(*this);
  }
  Deliver(&out_);
}

std::string GroupedAggregateStage::Describe() const {
  std::string keys = "[";
  std::string aggs = "[";
  for (const AggSpec& spec : specs_) {
    std::string& target = spec.fn == AggFn::kNone ? keys : aggs;
    if (target.size() > 1) target += ", ";
    target += spec.name;
  }
  return "GROUP AGGREGATE keys=" + keys + "] aggs=" + aggs + "]";
}

void GroupedAggregateStage::RebindControls(ExecControls* controls) {
  SinkStage::RebindControls(controls);
  // Partition stages (parallel MergeAll scratch) charge through the same
  // controls; a freshly cloned stage has none, but rebinding a warmed
  // instance must not leave them pointing at the old owner.
  for (auto& part : parts_) part->RebindControls(controls);
}

// --- DistinctStage ---

namespace {

std::vector<AggSpec> DistinctSpecs(const std::vector<ProjectColumn>& schema) {
  std::vector<AggSpec> specs;
  specs.reserve(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    AggSpec spec;
    spec.fn = AggFn::kNone;  // every column a group key, zero aggregates
    spec.input = static_cast<int>(i);
    spec.out_type = schema[i].type;
    spec.name = schema[i].name;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<ValueType> DistinctInputTypes(const std::vector<ProjectColumn>& schema) {
  std::vector<ValueType> types;
  types.reserve(schema.size());
  for (const ProjectColumn& col : schema) types.push_back(col.type);
  return types;
}

}  // namespace

DistinctStage::DistinctStage(const std::vector<ProjectColumn>& schema, uint32_t batch_capacity,
                             ExecControls* controls)
    : GroupedAggregateStage(DistinctSpecs(schema), DistinctInputTypes(schema), batch_capacity,
                            controls),
      schema_(schema),
      capacity_(batch_capacity) {}

std::unique_ptr<SinkStage> DistinctStage::Clone() const {
  return std::make_unique<DistinctStage>(schema_, capacity_, controls_);
}

std::string DistinctStage::Describe() const {
  std::string cols = "[";
  for (const ProjectColumn& col : schema_) {
    if (cols.size() > 1) cols += ", ";
    cols += col.name;
  }
  return "DISTINCT " + cols + "]";
}

// --- SortStage ---

SortStage::SortStage(std::vector<ProjectColumn> schema, std::vector<SortKeySpec> keys,
                     uint64_t limit, uint32_t batch_capacity, ExecControls* controls)
    : SinkStage(controls),
      schema_(std::move(schema)),
      keys_(std::move(keys)),
      limit_(limit) {
  cols_.resize(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    cols_[c].type = schema_[c].type;
    bool is_key = false;
    for (const SortKeySpec& key : keys_) is_key |= key.col == static_cast<int>(c);
    if (!is_key) tiebreak_cols_.push_back(static_cast<int>(c));
  }
  // One buffered row costs ~9 bytes per column (8-byte payload + null
  // flag) plus the 4-byte order_ permutation slot.
  bytes_per_row_ = static_cast<uint64_t>(schema_.size()) * 9 + 4;
  out_.Init(schema_, batch_capacity < 1 ? 1 : batch_capacity);
}

std::unique_ptr<SinkStage> SortStage::Clone() const {
  return std::make_unique<SortStage>(schema_, keys_, limit_, out_.capacity(), controls_);
}

void SortStage::Reset() {
  num_buffered_ = 0;
  for (ColumnArena& col : cols_) {
    col.ints.clear();
    col.doubles.clear();
    col.strings.clear();
    col.nulls.clear();
  }
  order_.clear();
  out_.Clear();
}

void SortStage::OnBatch(const RowBatch& batch) {
  if (controls_->token.stop_requested()) return;
  // Sort buffers the whole input stream: charge it against the budget
  // before growing. A failed charge raises kResourceExhausted and the
  // batch is discarded (the execution is failing).
  if (!controls_->ChargeOrStop(static_cast<uint64_t>(batch.num_rows()) * bytes_per_row_)) {
    return;
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnArena& dst = cols_[c];
    const RowBatch::Column& src = batch.column(c);
    dst.nulls.insert(dst.nulls.end(), src.nulls.begin(), src.nulls.end());
    switch (dst.type) {
      case ValueType::kDouble:
        dst.doubles.insert(dst.doubles.end(), src.doubles.begin(), src.doubles.end());
        break;
      case ValueType::kString:
        dst.strings.insert(dst.strings.end(), src.strings.begin(), src.strings.end());
        break;
      default:
        dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
        break;
    }
  }
  num_buffered_ += batch.num_rows();
}

void SortStage::Merge(SinkStage& worker) {
  auto& other = static_cast<SortStage&>(worker);
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnArena& dst = cols_[c];
    const ColumnArena& src = other.cols_[c];
    dst.nulls.insert(dst.nulls.end(), src.nulls.begin(), src.nulls.end());
    dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
    dst.doubles.insert(dst.doubles.end(), src.doubles.begin(), src.doubles.end());
    dst.strings.insert(dst.strings.end(), src.strings.begin(), src.strings.end());
  }
  num_buffered_ += other.num_buffered_;
}

int SortStage::CompareCell(int col, uint32_t a, uint32_t b) const {
  const ColumnArena& c = cols_[col];
  bool a_null = c.nulls[a] != 0;
  bool b_null = c.nulls[b] != 0;
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? 1 : -1);  // null = +inf
  switch (c.type) {
    case ValueType::kDouble: {
      // NaNs rank between the numbers and null (and equal to each
      // other): plain < comparisons on NaN would break the strict weak
      // ordering std::sort requires.
      double x = c.doubles[a];
      double y = c.doubles[b];
      bool x_nan = x != x;
      bool y_nan = y != y;
      if (x_nan || y_nan) return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case ValueType::kString: {
      const std::string* x = c.strings[a];
      const std::string* y = c.strings[b];
      if (x == y) return 0;
      int cmp = x->compare(*y);
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    default: {
      int64_t x = c.ints[a];
      int64_t y = c.ints[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
  }
}

bool SortStage::RowLess(uint32_t a, uint32_t b) const {
  for (const SortKeySpec& key : keys_) {
    int cmp = CompareCell(key.col, a, b);
    if (key.desc) cmp = -cmp;
    if (cmp != 0) return cmp < 0;
  }
  // Tie-break by the remaining columns ascending: output order is then
  // deterministic up to fully identical rows (which are interchangeable).
  for (int c : tiebreak_cols_) {
    int cmp = CompareCell(c, a, b);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

void SortStage::Finish() {
  // A pre-drained downstream LIMIT makes the whole sort moot.
  if (next_ != nullptr && next_->Done()) return;
  // Deadline / cancel landing before the sort: skip it entirely (the
  // sort itself is uninterruptible, so check the clock first).
  if (controls_->token.PollClock()) return;
  size_t n = num_buffered_;
  size_t emit = limit_ < n ? static_cast<size_t>(limit_) : n;
  if (emit == 0) return;  // ORDER BY ... LIMIT 0: nothing to order
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0u);
  auto less = [this](uint32_t a, uint32_t b) { return RowLess(a, b); };
  if (emit < n) {
    // The LIMIT caps the output: top-k via partial_sort instead of
    // ordering the whole buffer.
    std::partial_sort(order_.begin(), order_.begin() + static_cast<ptrdiff_t>(emit),
                      order_.end(), less);
  } else {
    std::sort(order_.begin(), order_.end(), less);
  }
  for (size_t i = 0; i < emit; ++i) {
    if (next_ != nullptr && next_->Done()) break;
    if ((i & 255u) == 0 && controls_->token.PollClock()) return;
    uint32_t row = order_[i];
    for (size_t c = 0; c < cols_.size(); ++c) AppendCell(&out_, c, cols_[c], row);
    out_.AdvanceRow();
    if (out_.full()) Deliver(&out_);
  }
  Deliver(&out_);
}

std::string SortStage::Describe() const {
  std::string out = "ORDER BY [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema_[keys_[i].col].name;
    out += keys_[i].desc ? " DESC" : " ASC";
  }
  out += "]";
  if (limit_ != kNoLimit) out += " LIMIT " + std::to_string(limit_);
  return out;
}

// --- LimitStage ---

LimitStage::LimitStage(std::vector<ProjectColumn> schema, uint64_t limit,
                       uint32_t batch_capacity, ExecControls* controls)
    : SinkStage(controls), schema_(std::move(schema)), limit_(limit), remaining_(limit) {
  out_.Init(schema_, batch_capacity < 1 ? 1 : batch_capacity);
}

std::unique_ptr<SinkStage> LimitStage::Clone() const {
  return std::make_unique<LimitStage>(schema_, limit_, out_.capacity(), controls_);
}

void LimitStage::Reset() {
  remaining_ = limit_;
  out_.Clear();
}

void LimitStage::OnBatch(const RowBatch& batch) {
  uint32_t take = batch.num_rows();
  if (remaining_ < take) take = static_cast<uint32_t>(remaining_);
  for (uint32_t r = 0; r < take; ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) AppendCell(&out_, c, batch.column(c), r);
    out_.AdvanceRow();
    if (out_.full()) Deliver(&out_);
  }
  remaining_ -= take;
}

void LimitStage::Finish() { Deliver(&out_); }

std::string LimitStage::Describe() const { return "LIMIT " + std::to_string(limit_); }

// --- ProjectSinkOp ---

ProjectSinkOp::ProjectSinkOp(const Graph* graph, std::vector<ProjectColumn> cols,
                             uint32_t batch_capacity, ExecControls* controls,
                             bool row_budget, std::vector<std::unique_ptr<SinkStage>> stages)
    : graph_(graph),
      cols_(std::move(cols)),
      batch_capacity_(batch_capacity < 1 ? 1 : batch_capacity),
      controls_(controls),
      row_budget_(row_budget),
      stages_(std::move(stages)) {
  APLUS_CHECK(controls_ != nullptr);
  batch_.Init(cols_, batch_capacity_);
  WireStages();
}

void ProjectSinkOp::WireStages() {
  for (size_t i = 0; i < stages_.size(); ++i) {
    stages_[i]->set_next(i + 1 < stages_.size() ? stages_[i + 1].get() : nullptr);
  }
}

void ProjectSinkOp::RebindControls(ExecControls* controls) {
  controls_ = controls;
  for (auto& stage : stages_) stage->RebindControls(controls);
}

std::unique_ptr<Operator> ProjectSinkOp::Clone() const {
  std::vector<std::unique_ptr<SinkStage>> cloned;
  cloned.reserve(stages_.size());
  for (const auto& stage : stages_) cloned.push_back(stage->Clone());
  return std::make_unique<ProjectSinkOp>(graph_, cols_, batch_capacity_, controls_,
                                         row_budget_, std::move(cloned));
}

void ProjectSinkOp::Run(MatchState* state) {
  if (row_budget_) {
    // Claim one row from the shared budget; the claim that drains it (and
    // every losing claim after) raises the stop flag so the scans wind
    // down. Exactly `limit` claims succeed across all workers. Only
    // active for stage-less plans — post-aggregation/-sort limits cannot
    // stop the match enumeration early.
    int64_t prev = controls_->rows_remaining.fetch_sub(1, std::memory_order_relaxed);
    if (prev <= 0) {
      controls_->token.RequestStop(StopReason::kLimit);
      return;
    }
    if (prev == 1) controls_->token.RequestStop(StopReason::kLimit);
  }
  state->count++;
  if (cols_.empty() && stages_.empty()) return;  // counting: the degenerate projection
  AppendRow(*state);
  if (batch_.full()) Flush();
}

void ProjectSinkOp::AppendRow(const MatchState& state) {
  for (size_t i = 0; i < cols_.size(); ++i) {
    const ProjectColumn& col = cols_[i];
    RowBatch::Column& out = batch_.cols_[i];
    uint64_t id = col.ref.is_edge ? state.e[col.ref.var]
                                  : static_cast<uint64_t>(state.v[col.ref.var]);
    if (col.ref.is_id) {
      out.ints.push_back(static_cast<int64_t>(id));
      out.nulls.push_back(0);
      continue;
    }
    const PropertyStore& store =
        col.ref.is_edge ? graph_->edge_props() : graph_->vertex_props();
    const PropertyColumn* pc = store.column(col.ref.key);
    if (pc == nullptr || id >= pc->size() || pc->IsNull(id)) {
      out.nulls.push_back(1);
      switch (out.type) {
        case ValueType::kDouble:
          out.doubles.push_back(0.0);
          break;
        case ValueType::kString:
          out.strings.push_back(nullptr);
          break;
        default:
          out.ints.push_back(0);
          break;
      }
      continue;
    }
    out.nulls.push_back(0);
    switch (out.type) {
      case ValueType::kDouble:
        out.doubles.push_back(pc->GetDouble(id));
        break;
      case ValueType::kString:
        out.strings.push_back(&pc->GetString(id));
        break;
      default:  // kInt64 / kBool / kCategory share the int payload
        out.ints.push_back(pc->GetInt64(id));
        break;
    }
  }
  batch_.num_rows_++;
}

void ProjectSinkOp::Flush() {
  if (batch_.empty()) return;
  RowConsumer* out =
      stages_.empty() ? static_cast<RowConsumer*>(controls_->consumer) : stages_.front().get();
  if (out != nullptr) out->OnBatch(batch_);
  batch_.Clear();
}

void ProjectSinkOp::ResetBatch() {
  batch_.Clear();
  // Charge this replica's projection batch arena for the execution (the
  // buffers are plan-lifetime, but they are this query's working set).
  if (!cols_.empty()) {
    controls_->ChargeOrStop(static_cast<uint64_t>(batch_capacity_) * cols_.size() * 9);
  }
  for (auto& stage : stages_) stage->Reset();
}

void ProjectSinkOp::MergeAllStages(ProjectSinkOp* const* workers, int num_workers,
                                   int num_threads) {
  for (size_t i = 0; i < stages_.size(); ++i) {
    stage_scratch_.clear();
    for (int w = 0; w < num_workers; ++w) {
      APLUS_DCHECK(workers[w]->stages_.size() == stages_.size());
      stage_scratch_.push_back(workers[w]->stages_[i].get());
    }
    stages_[i]->MergeAll(stage_scratch_.data(), num_workers, num_threads);
  }
}

void ProjectSinkOp::FinishStages() {
  for (auto& stage : stages_) stage->Finish();
}

std::vector<std::string> ProjectSinkOp::ChainLines() const {
  std::vector<std::string> lines;
  lines.push_back(Describe());
  for (const auto& stage : stages_) lines.push_back(stage->Describe());
  return lines;
}

std::string ProjectSinkOp::Describe() const {
  if (cols_.empty() && stages_.empty()) return "ProjectSink (count)";
  std::string out = "ProjectSink [";
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (i > 0) out += ", ";
    out += cols_[i].name;
  }
  out += "] batch=" + std::to_string(batch_capacity_);
  if (!stages_.empty()) out += " +" + std::to_string(stages_.size()) + " stages";
  return out;
}

}  // namespace aplus
