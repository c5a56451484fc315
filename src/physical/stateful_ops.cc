#include "physical/stateful_ops.h"

#include <algorithm>
#include <optional>
#include <string_view>

#include "common/logging.h"
#include "physical/fused_pipeline.h"
#include "physical/operators.h"

namespace sstreaming {

namespace {

/// Appends the state key of row i over `cols`: the arity byte, then each
/// column's value. Byte-identical to EncodeRow of the boxed row, without
/// boxing it.
void EncodeKeyTo(const std::vector<ColumnPtr>& cols, int64_t i,
                 std::string* out) {
  out->push_back(static_cast<char>(cols.size()));
  for (const ColumnPtr& col : cols) col->EncodeValueTo(i, out);
}

/// Reads an encoded row (EncodeRow, EncodeKeyTo) at data[*pos] in place,
/// advancing *pos past it: its `arity` values into `values`. A row of
/// another arity is InvalidArgument.
Status ReadEncodedRow(std::string_view data, size_t* pos, size_t arity,
                      std::vector<EncodedValue>* values) {
  if (*pos >= data.size() ||
      static_cast<unsigned char>(data[*pos]) != arity) {
    return Status::InvalidArgument("encoded row: bad arity");
  }
  ++*pos;
  values->resize(arity);
  for (EncodedValue& v : *values) {
    SS_RETURN_IF_ERROR(ReadEncodedValue(data, pos, &v));
  }
  return Status::OK();
}

/// A keyed operator's input, [partition][piece]: the exchange's map-side
/// pieces when `child` is a ShuffleExec (one per map task), else the
/// child's batch of each partition. Each partition's first task
/// concatenates its pieces (ConcatPieces), so the exchange's reduce side
/// needs no stage of its own.
Result<std::vector<std::vector<RecordBatchPtr>>> ExecutePieces(
    const PhysOpPtr& child, ExecContext* ctx) {
  if (auto* shuffle = dynamic_cast<ShuffleExec*>(child.get())) {
    return shuffle->ExecuteExchange(ctx);
  }
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in, child->Execute(ctx));
  std::vector<std::vector<RecordBatchPtr>> pieces(in.size());
  for (size_t p = 0; p < in.size(); ++p) pieces[p].push_back(std::move(in[p]));
  return pieces;
}

int64_t RowsOf(const std::vector<RecordBatchPtr>& pieces) {
  int64_t rows = 0;
  for (const RecordBatchPtr& piece : pieces) rows += piece->num_rows();
  return rows;
}

/// One partition's pieces as one batch, releasing the pieces, so they are
/// freed inside the task rather than on the epoch's thread after the
/// stage.
/// Materialized: the operators below evaluate expressions and encode keys
/// over whole batches, so selection views compact here
/// (docs/VECTORIZED_EXEC.md).
RecordBatchPtr ConcatPieces(const PhysOpPtr& child,
                            std::vector<RecordBatchPtr>* pieces) {
  RecordBatchPtr batch = RecordBatch::Materialize(
      RecordBatch::Concat(child->schema(), *pieces));
  pieces->clear();
  return batch;
}

// ---------------------------------------------------------------------------
// The keyed-shard driver (docs/STATE_SHARDING.md)
//
// Every stateful operator runs an epoch the same way; RunKeyedShards is that
// sequence, and the operators supply only callbacks:
//   setup    open each partition's store serially and Open one shard
//            context per (partition, shard);
//   prepare  per partition, the partition's first step: concatenate the
//            exchange's pieces (ConcatPieces), then evaluate whatever
//            columns route and fold read;
//   route    the operator encodes the state keys of a row range and emits
//            (row, aux, key); the driver hashes each key
//            (StateStore::HashKey), picks its shard (ShardOf) and appends
//            the row to that shard's bucket for the range;
//   fold     per shard, FoldBuckets hands the operator each bucketed
//            (row, aux, key, hash) in input order;
//   finish   per shard, in shard-index order: the operator appends output
//            cells to the task's BatchBuilder over the operator's schema;
//   commit   per shard, right after its finish and in the same task: the
//            shard's epoch ends (StateManager::EndShardEpoch), so state
//            files are written in parallel, not by the driver afterwards;
//   merge    each partition's shard outputs, concatenated in shard order.
//
// The grain rule turns those steps into scheduler tasks. When partition
// parallelism alone covers the scheduler (parallelism <= partitions), one
// task per partition prepares the partition, routes it into one bucket per
// shard a slice of kInlineSliceRows rows at a time, folding each slice's
// buckets before routing the next, then finishes the shards in index order
// (inline grain, stage `<name>`). Otherwise stage `<name>[eval]` prepares
// each partition in its own task, stage `<name>[split]` routes row chunks
// into one bucket per (chunk, shard) and stage `<name>` runs one fold task
// per (partition, shard), packed onto the scheduler's cores (split grain).
// Buckets keep input order (chunks are contiguous row ranges, folded in
// chunk order), so on either grain each shard folds its rows in input
// order with the same loop: an operator's output is a deterministic
// function of the input, the same on both grains.
// ---------------------------------------------------------------------------

/// One (chunk, shard) bucket of routed rows: parallel vectors of the row's
/// index in the partition, the operator's auxiliary value, the key's hash,
/// and the encoded state key (concatenated, delimited by key_len).
struct KeyedEntries {
  std::vector<int32_t> rows;
  std::vector<int64_t> aux;
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> key_len;
  std::string keys;

  void Add(int64_t row, int64_t aux_value, std::string_view key,
           uint64_t hash) {
    rows.push_back(static_cast<int32_t>(row));
    aux.push_back(aux_value);
    hashes.push_back(hash);
    key_len.push_back(static_cast<uint32_t>(key.size()));
    keys.append(key);
  }

  /// Empties the bucket, keeping its buffers.
  void Clear() {
    rows.clear();
    aux.clear();
    hashes.clear();
    key_len.clear();
    keys.clear();
  }
};

/// Rows the inline grain routes into its buckets before folding them: the
/// slice's routed keys (~40 KB) stay in cache between route and fold.
constexpr int64_t kInlineSliceRows = 1024;

/// Split-stage chunk count: enough chunks to split big partitions in
/// parallel without paying per-task overhead on small ones.
int SplitChunks(int64_t rows, int num_shards) {
  return rows >= 4096 ? num_shards : 1;
}

/// Packs fine-grained (partition, shard) tasks into at most `max_tasks`
/// scheduler tasks, round-robin: tasks beyond the cores that can run them
/// buy no parallelism and only pay per-task launch overhead. Each inner task
/// still owns its shard and output slot, so results are byte-identical to
/// the unpacked run.
std::vector<std::function<Status()>> CoalesceTasks(
    std::vector<std::function<Status()>> tasks, int max_tasks) {
  if (max_tasks <= 0 || tasks.size() <= static_cast<size_t>(max_tasks)) {
    return tasks;
  }
  std::vector<std::vector<std::function<Status()>>> groups(
      static_cast<size_t>(max_tasks));
  for (size_t i = 0; i < tasks.size(); ++i) {
    groups[i % static_cast<size_t>(max_tasks)].push_back(
        std::move(tasks[i]));
  }
  std::vector<std::function<Status()>> out;
  out.reserve(groups.size());
  for (auto& group : groups) {
    out.push_back([group = std::move(group)]() -> Status {
      for (const auto& task : group) SS_RETURN_IF_ERROR(task());
      return Status::OK();
    });
  }
  return out;
}

/// Base of the operators' shard contexts: what setup hands each one, the
/// shard's buckets of routed rows (one per route chunk), and the store
/// entries its fold touched this epoch. An operator that keeps its
/// contexts across epochs keeps the buffers warm.
struct KeyedShard {
  size_t partition = 0;
  StateStore* state = nullptr;
  std::vector<KeyedEntries> buckets;
  /// This epoch's touched entries in first-touch order; touched entry g
  /// carries the mark g + 1 (Touch). Marks are never reset: one counts only
  /// when it names a touched entry of this epoch with the same key
  /// (entries never move).
  std::vector<StateStore::Slot> touched;

  /// Operators whose store key is the routed key set this in their shard
  /// type: the fold loop then prefetches the store entry each routed hash
  /// finds. (Not the join: its store keys carry a side prefix.)
  static constexpr bool kPrefetchStore = false;

  void Open(size_t p, StateStore* s) {
    partition = p;
    state = s;
    touched.clear();
  }

  /// The touched ordinal of the entry with mark `mark` whose key is the
  /// store's string at `key`, or -1 when this epoch has not touched it.
  int64_t TouchedOf(uint32_t mark, const std::string* key) const {
    if (mark == 0 || mark > touched.size()) return -1;
    return touched[mark - 1].key == key ? int64_t{mark} - 1 : -1;
  }

  /// The touched ordinal of `slot`'s entry; its first touch this epoch
  /// appends it (and returns the old touched.size()).
  size_t Touch(const StateStore::Slot& slot) {
    const int64_t g = TouchedOf(*slot.mark, slot.key);
    if (g >= 0) return static_cast<size_t>(g);
    touched.push_back(slot);
    *slot.mark = static_cast<uint32_t>(touched.size());
    return touched.size() - 1;
  }
};

/// Dedup's shard context: its store key is the routed key.
struct DedupShard : KeyedShard {
  static constexpr bool kPrefetchStore = true;
};

/// flatMapGroupsWithState's shard context: its groups this epoch are its
/// touched store entries, group g's rows (in input order) at rows[g]. Its
/// store key is the routed key.
struct GroupShard : KeyedShard {
  static constexpr bool kPrefetchStore = true;
  std::vector<std::vector<int32_t>> rows;
};

/// The fold loop of both grains: hands `fold` every row in the shard's
/// buckets, in bucket (= input) order. With Shard::kPrefetchStore it
/// prefetches the store's index slot kSlotAhead rows ahead and the entry
/// that slot points at kEntryAhead rows ahead, so the probe for each key
/// finds both in cache. A table under kPrefetchMinRows entries (a few
/// dozen KB, e.g. yahoo_drain's windowed counts) stays cached between its
/// probes anyway, and the hints would only cost time.
template <typename Shard, typename Fold>
Status FoldBuckets(Shard& shard, const Fold& fold) {
  constexpr size_t kSlotAhead = 16;
  constexpr size_t kEntryAhead = 8;
  constexpr int64_t kPrefetchMinRows = 512;
  const StateStore* state = shard.state;
  const bool prefetch =
      Shard::kPrefetchStore && state->size() >= kPrefetchMinRows;
  for (const KeyedEntries& e : shard.buckets) {
    const size_t n = e.rows.size();
    if (prefetch) {
      for (size_t j = 0; j < std::min(n, kSlotAhead); ++j) {
        state->PrefetchSlot(e.hashes[j]);
      }
    }
    size_t off = 0;
    for (size_t j = 0; j < n; ++j) {
      if (prefetch) {
        if (j + kSlotAhead < n) state->PrefetchSlot(e.hashes[j + kSlotAhead]);
        if (j + kEntryAhead < n) {
          state->PrefetchEntry(e.hashes[j + kEntryAhead]);
        }
      }
      const std::string_view key(e.keys.data() + off, e.key_len[j]);
      off += e.key_len[j];
      SS_RETURN_IF_ERROR(fold(shard, e.rows[j], e.aux[j], key, e.hashes[j]));
    }
  }
  return Status::OK();
}

/// Runs one epoch of a keyed-state operator over partitions of
/// `num_rows[p]` rows (see the section comment). `shards` holds the shard
/// contexts, [partition][shard]; an operator that keeps it across epochs
/// keeps their buffers warm. Callbacks (template parameters, so the per-row
/// calls inline):
///   prepare(p) -> Status, run before any route of partition p;
///   route(p, lo, hi, emit) -> Status, calling emit(row, aux, key) -> Status
///     for each state key of the rows in [lo, hi), in row order;
///   fold(shard, row, aux, key, hash) -> Status;
///   finish(shard, BatchBuilder* out) -> Status.
/// Returns one batch per partition of op's schema.
template <typename Shard, typename Prepare, typename Route, typename Fold,
          typename Finish>
Result<std::vector<RecordBatchPtr>> RunKeyedShards(
    ExecContext* ctx, const PhysOp& op, const std::vector<int64_t>& num_rows,
    std::vector<std::vector<Shard>>* shards, const Prepare& prepare,
    const Route& route, const Fold& fold, const Finish& finish) {
  const size_t P = num_rows.size();
  const int op_id = op.op_id();
  const std::string name = op.name();
  // The grain rule: per-shard tasks only pay off on cores that partition
  // parallelism leaves idle; otherwise the split stage is an extra pass
  // over the data for nothing.
  const int cores = ctx->scheduler->parallelism();
  const bool inline_grain = cores <= static_cast<int>(P);

  // Stores open serially (lazy open does recovery I/O under the manager
  // lock); the tasks below then touch disjoint shards lock-free.
  shards->resize(P);
  std::vector<int> chunks(P, 1);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(ShardedStateStore * store,
                        ctx->state->GetStore(op_id, static_cast<int>(p)));
    std::vector<Shard>& row = (*shards)[p];
    const int S = store->num_shards();
    if (!inline_grain) chunks[p] = SplitChunks(num_rows[p], S);
    row.resize(static_cast<size_t>(S));
    for (int s = 0; s < S; ++s) {
      Shard& shard = row[static_cast<size_t>(s)];
      shard.Open(p, store->shard(s));
      shard.buckets.resize(static_cast<size_t>(chunks[p]));
      for (KeyedEntries& bucket : shard.buckets) bucket.Clear();
    }
  }

  // Routes rows [lo, hi) of partition p into bucket `chunk` of each shard.
  // Concurrent calls for one partition write disjoint buckets.
  auto route_into = [&](size_t p, size_t chunk, int64_t lo,
                        int64_t hi) -> Status {
    std::vector<Shard>& ps = (*shards)[p];
    const int S = static_cast<int>(ps.size());
    return route(
        p, lo, hi,
        [&](int64_t row, int64_t aux, std::string_view key) -> Status {
          const uint64_t hash = StateStore::HashKey(key);
          ps[static_cast<size_t>(ShardedStateStore::ShardOf(hash, S))]
              .buckets[chunk]
              .Add(row, aux, key, hash);
          return Status::OK();
        });
  };

  // Output batches per partition in shard-index order, each built by the
  // task that finished and committed its shards; the merge only
  // concatenates them.
  std::vector<std::vector<RecordBatchPtr>> pieces(P);
  auto finish_into = [&](Shard* first, size_t count,
                         RecordBatchPtr* piece) -> Status {
    BatchBuilder out(op.schema());
    for (size_t s = 0; s < count; ++s) {
      SS_RETURN_IF_ERROR(finish(first[s], &out));
      SS_RETURN_IF_ERROR(
          ctx->state->EndShardEpoch(first[s].state, ctx->state_commit_epoch));
    }
    if (out.num_rows() > 0) *piece = out.Finish();
    return Status::OK();
  };

  std::vector<std::function<Status()>> tasks;
  if (inline_grain) {
    for (size_t p = 0; p < P; ++p) {
      pieces[p].resize(1);
      tasks.push_back([&, p]() -> Status {
        SS_RETURN_IF_ERROR(prepare(p));
        std::vector<Shard>& ps = (*shards)[p];
        // Route and fold slice by slice: a slice's buckets stay small and
        // cache-resident, and each shard still folds its rows in input
        // order.
        for (int64_t lo = 0; lo < num_rows[p]; lo += kInlineSliceRows) {
          SS_RETURN_IF_ERROR(route_into(
              p, 0, lo, std::min(num_rows[p], lo + kInlineSliceRows)));
          for (Shard& shard : ps) {
            SS_RETURN_IF_ERROR(FoldBuckets(shard, fold));
            shard.buckets[0].Clear();
          }
        }
        return finish_into(ps.data(), ps.size(), &pieces[p][0]);
      });
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id, name, std::move(tasks)));
  } else {
    for (size_t p = 0; p < P; ++p) {
      tasks.push_back([&prepare, p]() -> Status { return prepare(p); });
    }
    SS_RETURN_IF_ERROR(
        ctx->RunStage(op_id, name + "[eval]", std::move(tasks)));

    tasks.clear();
    for (size_t p = 0; p < P; ++p) {
      const int64_t n = num_rows[p];
      const int C = chunks[p];
      const int64_t per = (n + C - 1) / C;
      for (int c = 0; c < C; ++c) {
        const int64_t lo = c * per;
        const int64_t hi = std::min(n, lo + per);
        tasks.push_back([&, p, c, lo, hi]() -> Status {
          return route_into(p, static_cast<size_t>(c), lo, hi);
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id, name + "[split]",
                                     CoalesceTasks(std::move(tasks), cores)));

    tasks.clear();
    for (size_t p = 0; p < P; ++p) {
      const size_t S = (*shards)[p].size();
      pieces[p].resize(S);
      for (size_t s = 0; s < S; ++s) {
        tasks.push_back([&, p, s]() -> Status {
          Shard& shard = (*shards)[p][s];
          SS_RETURN_IF_ERROR(FoldBuckets(shard, fold));
          return finish_into(&shard, 1, &pieces[p][s]);
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id, name,
                                     CoalesceTasks(std::move(tasks), cores)));
  }

  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    std::vector<RecordBatchPtr> parts;
    for (RecordBatchPtr& piece : pieces[p]) {
      if (piece != nullptr) parts.push_back(std::move(piece));
    }
    out[p] = RecordBatch::Concat(op.schema(), parts);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// StatefulAggExec
// ---------------------------------------------------------------------------

StatefulAggExec::StatefulAggExec(int op_id, PhysOpPtr child,
                                 SchemaPtr out_schema,
                                 std::vector<NamedExpr> group_exprs,
                                 std::vector<AggSpec> aggregates)
    : PhysOp(op_id, std::move(out_schema), {std::move(child)}),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)) {
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (group_exprs_[i].expr->kind() == Expr::Kind::kWindow) {
      window_key_index_ = static_cast<int>(i);
      window_expr_ = static_cast<const WindowExpr*>(group_exprs_[i].expr.get());
    }
  }
}

// One (partition, shard)'s fold for the current epoch: touched key g
// (KeyedShard::Touch) with its group (window start, first row) and its
// aggregate record (AggRecords) at cells [g * C, (g + 1) * C) and strings
// [g * K, (g + 1) * K). Every routed row finds or creates its store entry
// (one probe); the key's first row decodes its stored state into the
// record, and the end of the fold encodes each record back into its entry
// once. The buffers are kept across epochs, strings for their storage.
struct StatefulAggExec::ShardFold : KeyedShard {
  static constexpr bool kPrefetchStore = true;

  struct Group {
    int64_t wstart;  // window start; 0 when not windowed
    int64_t row;     // the key's first row this epoch in the partition
  };
  std::vector<Group> groups;
  std::vector<AggCell> cells;
  std::vector<std::string> strings;
  // A stored group's record, decoded for output.
  std::vector<AggCell> stored_cells;
  std::vector<std::string> stored_strings;

  void Open(size_t p, StateStore* s) {
    KeyedShard::Open(p, s);
    groups.clear();
  }
};

StatefulAggExec::~StatefulAggExec() = default;

int StatefulAggExec::num_output_key_columns() const {
  int n = 0;
  for (const NamedExpr& g : group_exprs_) {
    n += g.expr->kind() == Expr::Kind::kWindow ? 2 : 1;
  }
  return n;
}

Result<std::vector<RecordBatchPtr>> StatefulAggExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<std::vector<RecordBatchPtr>> pieces,
                      ExecutePieces(children_[0], ctx));
  const size_t P = pieces.size();
  const bool windowed = window_expr_ != nullptr;
  const int64_t watermark = ctx->watermark_micros;
  const int64_t window_size = windowed ? window_expr_->size_micros() : 0;
  const AggRecords records(aggregates_);
  const size_t C = records.num_cells();
  const size_t K = records.num_strings();

  // A fold kernel bound to its spec's argument column and record offsets.
  struct BoundKernel {
    AggFoldFn fold;
    const Column* arg;  // null for count(*)
    size_t cell;
    size_t string;
  };
  struct PartitionWork {
    std::vector<ColumnPtr> key_cols;
    std::vector<ColumnPtr> arg_cols;
    std::vector<BoundKernel> kernels;
  };
  std::vector<PartitionWork> work(P);
  std::vector<int64_t> num_rows(P);
  for (size_t p = 0; p < P; ++p) num_rows[p] = RowsOf(pieces[p]);

  // Prepare: the partition's input, then vectorized evaluation of group
  // keys and agg arguments, and the kernel of each aggregate over its
  // argument column's type. A group key column must fit its output column,
  // which update mode appends it to.
  auto prepare = [&](size_t p) -> Status {
    const RecordBatchPtr in = ConcatPieces(children_[0], &pieces[p]);
    const RecordBatch& input = *in;
    PartitionWork& w = work[p];
    w.key_cols.resize(group_exprs_.size());
    int c = 0;
    for (size_t g = 0; g < group_exprs_.size(); ++g, ++c) {
      if (static_cast<int>(g) == window_key_index_) {
        SS_ASSIGN_OR_RETURN(w.key_cols[g],
                            window_expr_->time()->EvalBatch(input));
        ++c;  // the window end
        continue;
      }
      SS_ASSIGN_OR_RETURN(w.key_cols[g],
                          group_exprs_[g].expr->EvalBatch(input));
      const TypeId got = w.key_cols[g]->type();
      const Field& field = schema()->field(c);
      if (got != TypeId::kNull &&
          PhysicalKindOf(got) != PhysicalKindOf(field.type)) {
        return Status::InvalidArgument(
            std::string("group key of type ") + TypeName(got) +
            " does not fit column '" + field.name + "' of type " +
            TypeName(field.type));
      }
    }
    w.arg_cols.resize(aggregates_.size());
    w.kernels.clear();
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      TypeId arg_type = TypeId::kNull;
      if (aggregates_[a].func != AggFunc::kCountAll) {
        SS_ASSIGN_OR_RETURN(w.arg_cols[a],
                            aggregates_[a].arg->EvalBatch(input));
        arg_type = w.arg_cols[a]->type();
      }
      SS_ASSIGN_OR_RETURN(AggFoldFn fold, records.Kernel(a, arg_type));
      w.kernels.push_back(BoundKernel{fold, w.arg_cols[a].get(), a,
                                      records.string_index(a)});
    }
    return Status::OK();
  };

  // Late data: rows for a window already closed by the watermark are
  // dropped before they reach state, and closed windows are evicted.
  auto closed = [&](int64_t wstart) {
    return windowed && watermark != INT64_MIN &&
           wstart + window_size <= watermark;
  };

  // Route: the state keys of each input row, one per window of the row's
  // event time that the watermark has not closed (none for a null event
  // time; one dummy window when not windowed), each encoded byte-identically
  // to EncodeRow but without boxing. The window start rides as aux.
  auto route = [&](size_t p, int64_t lo, int64_t hi, auto&& emit) -> Status {
    const PartitionWork& w = work[p];
    std::vector<int64_t> window_starts;
    std::string enc;
    for (int64_t i = lo; i < hi; ++i) {
      window_starts.clear();
      if (windowed) {
        const Column& time_col =
            *w.key_cols[static_cast<size_t>(window_key_index_)];
        if (time_col.IsNull(i)) continue;  // no event time
        window_expr_->EnumerateWindowStarts(time_col.Int64At(i),
                                            &window_starts);
      } else {
        window_starts.push_back(0);  // one dummy iteration
      }
      for (int64_t wstart : window_starts) {
        if (closed(wstart)) continue;  // late data: dropped
        enc.clear();
        enc.push_back(static_cast<char>(group_exprs_.size()));
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          if (static_cast<int>(g) == window_key_index_) {
            enc.push_back(static_cast<char>(TypeId::kTimestamp));
            PutFixed64(&enc, static_cast<uint64_t>(wstart));
          } else {
            w.key_cols[g]->EncodeValueTo(i, &enc);
          }
        }
        SS_RETURN_IF_ERROR(emit(i, wstart, enc));
      }
    }
    return Status::OK();
  };

  // Fold (see ShardFold): find or create the key's store entry and touch
  // it, then run each aggregate's kernel on the key's record.
  auto fold = [&](ShardFold& f, int64_t i, int64_t wstart,
                  std::string_view enc, uint64_t hash) -> Status {
    const StateStore::Slot slot = f.state->FindOrCreate(enc, hash);
    const size_t g = f.Touch(slot);
    if (g == f.groups.size()) {  // the key's first row this epoch
      f.groups.push_back(ShardFold::Group{wstart, i});
      f.cells.resize((g + 1) * C);
      if (f.strings.size() < (g + 1) * K) f.strings.resize((g + 1) * K);
      if (slot.created) {
        records.Init(f.cells.data() + g * C, f.strings.data() + g * K);
      } else {
        SS_RETURN_IF_ERROR(records.Decode(*slot.value, f.cells.data() + g * C,
                                          f.strings.data() + g * K));
      }
    }
    AggCell* cells = f.cells.data() + g * C;
    std::string* strings = f.strings.data() + g * K;
    for (const BoundKernel& k : work[f.partition].kernels) {
      k.fold(cells + k.cell, strings + k.string, k.arg, i);
    }
    return Status::OK();
  };

  // Output of the touched groups that the watermark left open (the
  // closed ones were evicted; never re-emit them), typed: each group key
  // gathered from its key column at the groups' first rows, one gather per
  // key column (the window from each group's start), then the finalized
  // aggregates from the records.
  const int num_keys = num_output_key_columns();
  auto emit_touched = [&](ShardFold& f, BatchBuilder* out) -> Status {
    const PartitionWork& w = work[f.partition];
    std::vector<size_t> open;
    std::vector<int32_t> rows;
    for (size_t g = 0; g < f.groups.size(); ++g) {
      if (closed(f.groups[g].wstart)) continue;
      open.push_back(g);
      rows.push_back(static_cast<int32_t>(f.groups[g].row));
    }
    int c = 0;
    for (size_t k = 0; k < group_exprs_.size(); ++k, ++c) {
      if (static_cast<int>(k) == window_key_index_) {
        Column& start = out->column(c);
        Column& end = out->column(++c);
        for (size_t g : open) {
          start.AppendInt64(f.groups[g].wstart);
          end.AppendInt64(f.groups[g].wstart + window_size);
        }
      } else {
        out->column(c).AppendGather(*w.key_cols[k], rows.data(),
                                    static_cast<int64_t>(rows.size()));
      }
    }
    for (size_t g : open) {
      SS_RETURN_IF_ERROR(records.AppendFinal(f.cells.data() + g * C,
                                             f.strings.data() + g * K,
                                             num_keys, out));
    }
    return Status::OK();
  };
  // Output of a stored group: each group key decoded from the key bytes
  // straight into its column (the window end after the window start), then
  // the finals of its state, decoded into a record.
  auto emit_stored_group = [&](ShardFold& f, std::string_view enc,
                               const std::string& state,
                               BatchBuilder* out) -> Status {
    size_t pos = 1;  // past the arity byte
    int c = 0;
    for (size_t g = 0; g < group_exprs_.size(); ++g) {
      SS_RETURN_IF_ERROR(out->AppendEncoded(c, enc, &pos));
      if (static_cast<int>(g) == window_key_index_) {
        const Column& start = out->column(c);
        Column& end = out->column(c + 1);
        const int64_t last = start.size() - 1;
        if (start.IsNull(last)) {
          end.AppendNull();
        } else {
          end.AppendInt64(start.Int64At(last) + window_size);
        }
        ++c;
      }
      ++c;
    }
    f.stored_cells.resize(C);
    f.stored_strings.resize(K);
    SS_RETURN_IF_ERROR(
        records.Decode(state, f.stored_cells.data(), f.stored_strings.data()));
    return records.AppendFinal(f.stored_cells.data(), f.stored_strings.data(),
                               num_keys, out);
  };
  // The window start of a stored group, read from the key bytes: skip the
  // group keys before the window key, then read the timestamp.
  auto window_start_of = [&](std::string_view enc) -> Result<int64_t> {
    size_t pos = 1;  // past the arity byte
    EncodedValue v;
    for (int g = 0; g <= window_key_index_; ++g) {
      SS_RETURN_IF_ERROR(ReadEncodedValue(enc, &pos, &v));
    }
    if (v.type != TypeId::kTimestamp) {
      return Status::Internal("corrupt window key in aggregate state");
    }
    return static_cast<int64_t>(v.bits);
  };
  // Emits every stored group for which `pick(key)` holds, into `out` when
  // non-null, and removes the picked groups from the store when `evict`.
  auto emit_stored = [&](ShardFold& f, BatchBuilder* out, auto&& pick,
                         bool evict) -> Status {
    Status iter_status;
    f.state->ForEach([&](const std::string& k, const std::string& v,
                         uint32_t) {
      if (!iter_status.ok()) return;
      auto picked = pick(k);
      if (!picked.ok()) {
        iter_status = picked.status();
        return;
      }
      if (!*picked) return;
      if (out != nullptr) iter_status = emit_stored_group(f, k, v, out);
      if (evict) f.state->Remove(k);
    });
    return iter_status;
  };
  auto every = [](const std::string&) -> Result<bool> { return true; };

  // Finish: encode the touched records back, then emit per output mode
  // (batch/complete: everything; append: finals of windows closed by the
  // watermark; update: the touched keys minus evicted ones), evicting
  // closed windows along the way.
  auto finish = [&](ShardFold& f, BatchBuilder* out) -> Status {
    for (size_t g = 0; g < f.touched.size(); ++g) {
      std::string* value = f.touched[g].value;
      value->clear();
      records.Encode(f.cells.data() + g * C, f.strings.data() + g * K, value);
    }
    // One-shot batch run: emit everything, no eviction needed.
    if (ctx->is_batch) return emit_stored(f, out, every, false);

    if (windowed && watermark != INT64_MIN) {
      SS_RETURN_IF_ERROR(emit_stored(
          f, ctx->mode == OutputMode::kAppend ? out : nullptr,
          [&](const std::string& k) -> Result<bool> {
            SS_ASSIGN_OR_RETURN(int64_t wstart, window_start_of(k));
            return closed(wstart);
          },
          true));
    }

    if (ctx->mode == OutputMode::kUpdate) return emit_touched(f, out);
    if (ctx->mode == OutputMode::kComplete) {
      return emit_stored(f, out, every, false);
    }
    return Status::OK();
  };

  return RunKeyedShards(ctx, *this, num_rows, &folds_, prepare, route, fold,
                        finish);
}

// ---------------------------------------------------------------------------
// DedupExec
// ---------------------------------------------------------------------------

DedupExec::DedupExec(int op_id, PhysOpPtr child)
    : PhysOp(op_id, child->schema(), {child}) {}

Result<std::vector<RecordBatchPtr>> DedupExec::ExecuteImpl(ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<std::vector<RecordBatchPtr>> pieces,
                      ExecutePieces(children_[0], ctx));
  const size_t P = pieces.size();
  std::vector<RecordBatchPtr> in(P);
  std::vector<int64_t> num_rows(P);
  // Per partition, 1 for each row seen for the first time. Shards write
  // disjoint bytes (a row routes to one shard), and filtering by the mask
  // keeps input order whatever the shard count.
  std::vector<std::vector<uint8_t>> masks(P);
  for (size_t p = 0; p < P; ++p) {
    num_rows[p] = RowsOf(pieces[p]);
    masks[p].assign(static_cast<size_t>(num_rows[p]), 0);
  }
  std::vector<std::vector<DedupShard>> shards;

  auto prepare = [&](size_t p) -> Status {
    in[p] = ConcatPieces(children_[0], &pieces[p]);
    return Status::OK();
  };
  // The dedup key is the whole row.
  auto route = [&](size_t p, int64_t lo, int64_t hi, auto&& emit) -> Status {
    std::string enc;
    for (int64_t i = lo; i < hi; ++i) {
      enc.clear();
      EncodeKeyTo(in[p]->columns(), i, &enc);
      SS_RETURN_IF_ERROR(emit(i, 0, enc));
    }
    return Status::OK();
  };
  // One probe: a new key is inserted and its row kept; a re-seen duplicate
  // leaves its entry clean, so it is never rewritten into the next delta.
  auto fold = [&](DedupShard& f, int64_t i, int64_t, std::string_view enc,
                  uint64_t hash) -> Status {
    if (f.state->InsertIfAbsent(enc, hash)) {
      masks[f.partition][static_cast<size_t>(i)] = 1;
    }
    return Status::OK();
  };
  // The output is the input filtered by the masks, so finish emits no rows
  // and the driver's (empty) batches are dropped.
  auto finish = [](DedupShard&, BatchBuilder*) { return Status::OK(); };
  SS_RETURN_IF_ERROR(RunKeyedShards(ctx, *this, num_rows, &shards, prepare,
                                    route, fold, finish)
                         .status());

  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) out[p] = in[p]->Filter(masks[p]);
  return out;
}

StreamStreamJoinExec::StreamStreamJoinExec(
    int op_id, PhysOpPtr left, PhysOpPtr right, SchemaPtr out_schema,
    std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
    JoinShape shape, int left_time_index, int right_time_index)
    : PhysOp(op_id, std::move(out_schema), {left, right}),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      shape_(std::move(shape)),
      left_time_index_(left_time_index),
      right_time_index_(right_time_index) {}

Result<std::vector<RecordBatchPtr>> StreamStreamJoinExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<std::vector<RecordBatchPtr>> left_pieces,
                      ExecutePieces(children_[0], ctx));
  SS_ASSIGN_OR_RETURN(std::vector<std::vector<RecordBatchPtr>> right_pieces,
                      ExecutePieces(children_[1], ctx));
  if (left_pieces.size() != right_pieces.size()) {
    return Status::Internal("stream-stream join sides not co-partitioned");
  }
  const size_t P = left_pieces.size();
  const size_t left_arity =
      static_cast<size_t>(children_[0]->schema()->num_fields());
  const size_t right_arity =
      static_cast<size_t>(children_[1]->schema()->num_fields());
  std::vector<RecordBatchPtr> left_in(P);
  std::vector<RecordBatchPtr> right_in(P);
  // A partition's rows are its left rows, then its right rows: each shard
  // folds this epoch's left rows before its right rows, the two passes of
  // the symmetric hash join.
  std::vector<int64_t> num_rows(P);
  for (size_t p = 0; p < P; ++p) {
    num_rows[p] = RowsOf(left_pieces[p]) + RowsOf(right_pieces[p]);
  }
  std::vector<std::vector<ColumnPtr>> left_keys(P);
  std::vector<std::vector<ColumnPtr>> right_keys(P);

  // A shard's matches are built in `matched`, in fold order, and handed to
  // the task's builder in finish: on the inline grain the shards fold
  // slice by slice, and each shard's output must still come out whole.
  struct JoinShard : KeyedShard {
    std::optional<BatchBuilder> matched;
    std::string key;     // 'L' or 'R', then the routed key
    std::string record;  // the new row's [matched byte][EncodeRow bytes]
    std::vector<EncodedValue> row, stored;  // decoded in place
  };
  std::vector<std::vector<JoinShard>> shards;

  auto prepare = [&](size_t p) -> Status {
    left_in[p] = ConcatPieces(children_[0], &left_pieces[p]);
    right_in[p] = ConcatPieces(children_[1], &right_pieces[p]);
    for (int side = 0; side < 2; ++side) {
      const RecordBatch& input = side == 0 ? *left_in[p] : *right_in[p];
      const std::vector<ExprPtr>& exprs = side == 0 ? left_keys_ : right_keys_;
      std::vector<ColumnPtr>& cols = side == 0 ? left_keys[p] : right_keys[p];
      cols.resize(exprs.size());
      for (size_t k = 0; k < exprs.size(); ++k) {
        SS_ASSIGN_OR_RETURN(cols[k], exprs[k]->EvalBatch(input));
      }
    }
    return Status::OK();
  };

  // The shard is picked by the join key *without* the 'L'/'R' side byte,
  // so both sides of a key land in the same shard; store keys keep the
  // side prefix within the shard. aux is 1 for a key holding a NULL.
  auto route = [&](size_t p, int64_t lo, int64_t hi, auto&& emit) -> Status {
    const int64_t n_left = left_in[p]->num_rows();
    std::string enc;
    for (int64_t i = lo; i < hi; ++i) {
      const bool is_left = i < n_left;
      const std::vector<ColumnPtr>& cols =
          is_left ? left_keys[p] : right_keys[p];
      const int64_t row = is_left ? i : i - n_left;
      enc.clear();
      EncodeKeyTo(cols, row, &enc);
      SS_RETURN_IF_ERROR(emit(i, HasNullKey(cols, row) ? 1 : 0, enc));
    }
    return Status::OK();
  };

  // Appends one output row, matched or null-padded, from encoded rows: the
  // left cells, or NULLs with the USING keys taken from the right row; then
  // the kept right cells, or NULLs.
  auto emit = [&](BatchBuilder* out, const std::vector<EncodedValue>* left,
                  const std::vector<EncodedValue>* right) -> Status {
    std::vector<EncodedValue> padded;
    if (left == nullptr) {
      padded.resize(left_arity);
      for (const auto& [left_idx, right_idx] : shape_.using_keys) {
        padded[static_cast<size_t>(left_idx)] =
            (*right)[static_cast<size_t>(right_idx)];
      }
      left = &padded;
    }
    int c = 0;
    for (const EncodedValue& v : *left) {
      SS_RETURN_IF_ERROR(out->AppendEncoded(c++, v));
    }
    for (int idx : shape_.kept_right) {
      SS_RETURN_IF_ERROR(out->AppendEncoded(
          c++, right != nullptr ? (*right)[static_cast<size_t>(idx)]
                                : EncodedValue{}));
    }
    return Status::OK();
  };

  // Probe a new row against the other side's state (prior epochs, plus
  // this epoch's left rows when probing with a right row, which covers
  // intra-epoch matches exactly once), walking its value in place and
  // setting the flag of each stored row matched for the first time; then
  // append the row to its own side. A NULL-keyed row matches nothing, so
  // it skips the probe; it is still stored, to be null-padded at eviction
  // on a preserved side.
  auto fold = [&](JoinShard& f, int64_t i, int64_t null_key,
                  std::string_view enc, uint64_t) -> Status {
    const size_t p = f.partition;
    const int64_t n_left = left_in[p]->num_rows();
    const bool is_left = i < n_left;
    const RecordBatch& input = is_left ? *left_in[p] : *right_in[p];
    f.record.assign(1, 0);
    EncodeKeyTo(input.columns(), is_left ? i : i - n_left, &f.record);
    f.key.assign(1, is_left ? 'R' : 'L');
    f.key.append(enc);
    const std::string* other = null_key == 0 ? f.state->Get(f.key) : nullptr;
    if (other != nullptr) {
      if (!f.matched.has_value()) f.matched.emplace(schema_);
      size_t pos = 1;
      SS_RETURN_IF_ERROR(ReadEncodedRow(f.record, &pos, input.num_columns(),
                                        &f.row));
      std::string* live = nullptr;  // the stored value, once a flag flips
      for (pos = 0; pos < other->size();) {
        const size_t flag = pos++;
        SS_RETURN_IF_ERROR(ReadEncodedRow(
            *other, &pos, is_left ? right_arity : left_arity, &f.stored));
        SS_RETURN_IF_ERROR(is_left ? emit(&*f.matched, &f.row, &f.stored)
                                   : emit(&*f.matched, &f.stored, &f.row));
        if ((*other)[flag] == 0) {
          if (live == nullptr) live = f.state->FindOrCreate(f.key).value;
          (*live)[flag] = 1;
        }
        f.record[0] = 1;
      }
    }
    f.key[0] = is_left ? 'L' : 'R';
    return f.state->Append(f.key, f.record);
  };

  const int64_t watermark = ctx->watermark_micros;
  const bool evicting = watermark != INT64_MIN &&
                        (left_time_index_ >= 0 || right_time_index_ >= 0);
  auto finish = [&](JoinShard& f, BatchBuilder* out) -> Status {
    if (f.matched.has_value()) {
      RecordBatchPtr rows = f.matched->Finish();
      for (int c = 0; c < rows->num_columns(); ++c) {
        out->column(c).AppendRange(*rows->column(c), 0, rows->num_rows());
      }
    }
    if (!evicting) return Status::OK();
    // Watermark-driven eviction: rows whose event time has fallen below the
    // watermark can no longer match. Unmatched rows on a preserved outer
    // side are emitted null-padded exactly once. The walk rewrites each
    // changed entry to its remaining rows in place, or removes it.
    Status status;
    f.state->ForEach([&](const std::string& key, const std::string& value,
                         uint32_t) {
      const bool is_left = key[0] == 'L';
      const int time_index = is_left ? left_time_index_ : right_time_index_;
      if (!status.ok() || time_index < 0) return;
      const bool preserved =
          is_left ? shape_.preserves_left : shape_.preserves_right;
      std::string kept;
      bool evicted = false;
      for (size_t pos = 0; status.ok() && pos < value.size();) {
        const size_t start = pos;
        const bool matched = value[pos++] != 0;
        status = ReadEncodedRow(value, &pos,
                                is_left ? left_arity : right_arity, &f.stored);
        if (!status.ok()) return;
        const EncodedValue& t = f.stored[static_cast<size_t>(time_index)];
        if (t.type == TypeId::kNull ||
            static_cast<int64_t>(t.bits) >= watermark) {
          if (evicted) kept.append(value, start, pos - start);
          continue;
        }
        if (!evicted) kept.assign(value, 0, start);
        evicted = true;
        if (preserved && !matched) {
          status = is_left ? emit(out, &f.stored, nullptr)
                           : emit(out, nullptr, &f.stored);
        }
      }
      if (!status.ok() || !evicted) return;
      if (kept.empty()) {
        f.state->Remove(key);
      } else {
        *f.state->FindOrCreate(key).value = std::move(kept);
      }
    });
    return status;
  };

  return RunKeyedShards(ctx, *this, num_rows, &shards, prepare, route, fold,
                        finish);
}

// ---------------------------------------------------------------------------
// FlatMapGroupsWithStateExec
// ---------------------------------------------------------------------------

FlatMapGroupsWithStateExec::FlatMapGroupsWithStateExec(
    int op_id, PhysOpPtr child, SchemaPtr out_schema,
    std::vector<NamedExpr> key_exprs, GroupUpdateFn update_fn,
    GroupStateTimeout timeout, bool require_single_output)
    : PhysOp(op_id, std::move(out_schema), {std::move(child)}),
      key_exprs_(std::move(key_exprs)),
      update_fn_(std::move(update_fn)),
      timeout_(timeout),
      require_single_output_(require_single_output) {}

Result<std::vector<RecordBatchPtr>> FlatMapGroupsWithStateExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<std::vector<RecordBatchPtr>> pieces,
                      ExecutePieces(children_[0], ctx));
  const size_t P = pieces.size();
  const int64_t now = ctx->clock != nullptr ? ctx->clock->NowMicros() : 0;
  const int64_t watermark = ctx->watermark_micros;
  std::vector<RecordBatchPtr> in(P);
  std::vector<int64_t> num_rows(P);
  for (size_t p = 0; p < P; ++p) num_rows[p] = RowsOf(pieces[p]);
  std::vector<std::vector<ColumnPtr>> key_cols(P);

  std::vector<std::vector<GroupShard>> shards;

  auto prepare = [&](size_t p) -> Status {
    in[p] = ConcatPieces(children_[0], &pieces[p]);
    key_cols[p].resize(key_exprs_.size());
    for (size_t k = 0; k < key_exprs_.size(); ++k) {
      SS_ASSIGN_OR_RETURN(key_cols[p][k],
                          key_exprs_[k].expr->EvalBatch(*in[p]));
    }
    return Status::OK();
  };
  auto route = [&](size_t p, int64_t lo, int64_t hi, auto&& emit) -> Status {
    std::string enc;
    for (int64_t i = lo; i < hi; ++i) {
      enc.clear();
      EncodeKeyTo(key_cols[p], i, &enc);
      SS_RETURN_IF_ERROR(emit(i, 0, enc));
    }
    return Status::OK();
  };
  // Group the shard's rows by their key's store entry: one probe per row.
  auto fold = [&](GroupShard& f, int64_t i, int64_t, std::string_view enc,
                  uint64_t hash) -> Status {
    const size_t g = f.Touch(f.state->FindOrCreate(enc, hash));
    if (g == f.rows.size()) f.rows.emplace_back();
    f.rows[g].push_back(static_cast<int32_t>(i));
    return Status::OK();
  };

  // Calls the update function for the key of `slot` over `rows` of
  // `input` (none on a timeout), boxing only here, at the function's
  // edge, and edits the key's state in place: a key the function leaves
  // without state (one created this epoch included) is removed. State
  // value codec: [fixed64 timeout_at][encoded user row].
  auto invoke = [&](StateStore* state, const StateStore::Slot& slot,
                    const RecordBatch& input,
                    const std::vector<int32_t>& rows, bool timed_out,
                    BatchBuilder* out) -> Status {
    std::optional<Row> value;
    int64_t timeout_at = INT64_MAX;
    if (!slot.created) {
      size_t pos = 0;
      uint64_t at;
      if (!GetFixed64(*slot.value, &pos, &at)) {
        return Status::Internal("corrupt group state");
      }
      SS_ASSIGN_OR_RETURN(Row row, DecodeRow(*slot.value, &pos));
      value = std::move(row);
      timeout_at = static_cast<int64_t>(at);
    }
    SS_ASSIGN_OR_RETURN(Row key, DecodeRow(*slot.key));
    std::vector<Row> values;
    values.reserve(rows.size());
    for (int32_t r : rows) values.push_back(input.RowAt(r));
    GroupState group_state(std::move(value), watermark, now, timed_out);
    if (!timed_out) {
      // A pre-armed timeout stays armed unless the function re-arms it.
      group_state.SetTimeoutTimestamp(timeout_at);
    }
    SS_ASSIGN_OR_RETURN(std::vector<Row> results,
                        update_fn_(key, values, &group_state));
    if (require_single_output_ && results.size() != 1) {
      return Status::InvalidArgument(
          "mapGroupsWithState update function must return exactly one row, "
          "got " + std::to_string(results.size()));
    }
    for (const Row& r : results) {
      if (static_cast<int>(r.size()) != schema_->num_fields()) {
        return Status::InvalidArgument(
            "mapGroupsWithState output row arity mismatch");
      }
      SS_RETURN_IF_ERROR(out->AppendRow(r));
    }
    if (!group_state.exists() || (timed_out && !group_state.updated())) {
      // Timed-out state that the function did not refresh is dropped
      // (matching Spark: a timeout without update removes nothing
      // automatically, but keeping it would re-fire forever; Spark requires
      // the function to update or remove — we default to remove).
      state->Remove(*slot.key);
      return Status::OK();
    }
    slot.value->clear();
    PutFixed64(slot.value, static_cast<uint64_t>(
                               timeout_ == GroupStateTimeout::kNone
                                   ? INT64_MAX
                                   : group_state.timeout_at_micros()));
    EncodeRow(group_state.get(), slot.value);
    return Status::OK();
  };

  // Update every touched group, then walk the shard for timeouts: keys
  // not updated this trigger whose deadline passed (processing time vs.
  // watermark, §4.3.2), each invoked and edited as it is visited.
  auto finish = [&](GroupShard& f, BatchBuilder* out) -> Status {
    const RecordBatch& input = *in[f.partition];
    for (size_t g = 0; g < f.touched.size(); ++g) {
      SS_RETURN_IF_ERROR(
          invoke(f.state, f.touched[g], input, f.rows[g], false, out));
    }
    if (timeout_ == GroupStateTimeout::kNone || ctx->is_batch) {
      return Status::OK();
    }
    const int64_t deadline_clock =
        timeout_ == GroupStateTimeout::kProcessingTime ? now : watermark;
    Status status;
    f.state->ForEach([&](const std::string& key, const std::string& value,
                         uint32_t mark) {
      if (!status.ok() || f.TouchedOf(mark, &key) >= 0) return;
      size_t pos = 0;
      uint64_t timeout_at;
      if (!GetFixed64(value, &pos, &timeout_at)) {
        status = Status::Internal("corrupt group state");
        return;
      }
      if (deadline_clock != INT64_MIN &&
          static_cast<int64_t>(timeout_at) <= deadline_clock) {
        status =
            invoke(f.state, f.state->FindOrCreate(key), input, {}, true, out);
      }
    });
    return status;
  };

  return RunKeyedShards(ctx, *this, num_rows, &shards, prepare, route, fold,
                        finish);
}

}  // namespace sstreaming
