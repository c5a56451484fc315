#include "physical/stateful_ops.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"

namespace sstreaming {

namespace {

// Appends value i of src to dst with matching physical type (no boxing).
void AppendFromColumn(const Column& src, int64_t i, Column* dst) {
  if (src.IsNull(i)) {
    dst->AppendNull();
    return;
  }
  switch (PhysicalKindOf(src.type())) {
    case PhysicalKind::kBool:
      dst->AppendBool(src.BoolAt(i));
      break;
    case PhysicalKind::kInt64:
      dst->AppendInt64(src.Int64At(i));
      break;
    case PhysicalKind::kFloat64:
      dst->AppendFloat64(src.Float64At(i));
      break;
    case PhysicalKind::kString:
      dst->AppendString(src.StringAt(i));
      break;
    case PhysicalKind::kNone:
      dst->AppendNull();
      break;
  }
}

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetFixed64(const std::string& data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

// ---------------------------------------------------------------------------
// Shard routing (docs/STATE_SHARDING.md)
//
// Stateful operators run in up to three scheduler stages per epoch:
//   [eval]  per partition: vectorized evaluation of key/argument columns;
//   [split] per (partition, chunk): encode each row's state key and route it
//           to a shard bucket by StableHashKey(key) % num_shards;
//   <name>  per (partition, shard): fold the bucketed rows into that shard's
//           state and emit output rows.
// Buckets preserve input order (chunks are contiguous row ranges, visited in
// chunk order by the fold), so everything an operator emits is a
// deterministic function of the input regardless of shard count; shard
// outputs are merged in shard-index order.
// ---------------------------------------------------------------------------

/// One (chunk, shard) bucket of pre-routed rows: parallel vectors of the
/// row's index in the partition batch, an operator-specific auxiliary value,
/// and the row's encoded state key (concatenated, delimited by key_len).
struct KeyedEntries {
  std::vector<int32_t> rows;
  std::vector<int64_t> aux;
  std::vector<uint32_t> key_len;
  std::string keys;

  void Add(int64_t row, int64_t aux_value, const std::string& key) {
    rows.push_back(static_cast<int32_t>(row));
    aux.push_back(aux_value);
    key_len.push_back(static_cast<uint32_t>(key.size()));
    keys.append(key);
  }
};

/// Calls fn(row_index, aux, key_view) for each bucketed entry, in order.
template <typename Fn>
Status ForEachEntry(const KeyedEntries& e, Fn&& fn) {
  size_t off = 0;
  for (size_t j = 0; j < e.rows.size(); ++j) {
    std::string_view key(e.keys.data() + off, e.key_len[j]);
    off += e.key_len[j];
    SS_RETURN_IF_ERROR(fn(e.rows[j], e.aux[j], key));
  }
  return Status::OK();
}

/// Split-stage chunk count: enough chunks to split big partitions in
/// parallel without paying per-task overhead on small ones.
int SplitChunks(int64_t rows, int num_shards) {
  return rows >= 4096 ? num_shards : 1;
}

int ShardOfKey(const std::string& key, int num_shards) {
  return static_cast<int>(ShardedStateStore::StableHashKey(key) %
                          static_cast<uint64_t>(num_shards));
}

/// Packs fine-grained (partition, shard) tasks into at most `max_tasks`
/// scheduler tasks, round-robin. Sharding multiplies the stateful stages'
/// task count by the shard count; when partition parallelism alone already
/// covers the scheduler's cores, the extra tasks buy no parallelism and
/// only pay per-task launch overhead. Grouping is purely a scheduling
/// change: each inner task still owns its shard and output slot, so results
/// are byte-identical to the unpacked run.
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

/// Task cap for a sharded stage over `num_partitions` partitions: never
/// fewer tasks than the unsharded operator had, never more than can run at
/// once.
int ShardStageTaskCap(ExecContext* ctx, size_t num_partitions) {
  return std::max(ctx->scheduler->parallelism(),
                  static_cast<int>(num_partitions));
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

// One (partition, shard)'s fold for the current epoch: the keys it touched
// in first-touch order, each with its state decoded once, and an
// open-addressing index over them. The first row for a key finds or creates
// its store entry (one probe); later rows update the decoded state; the end
// of the fold encodes each state back into its entry once. Entries past
// `num_touched` are earlier epochs' leftovers, kept for their Row storage.
struct StatefulAggExec::ShardFold {
  struct Touched {
    StateStore::Slot slot;
    uint64_t hash;   // StableHashKey of the key
    int64_t wstart;  // window start; 0 when not windowed
    Row state;
  };
  StateShardProtocol* shard = nullptr;
  std::vector<Touched> touched;
  size_t num_touched = 0;
  std::vector<uint32_t> index;  // 0 = empty, else position in touched + 1
  std::string key_buf;

  static size_t Home(uint64_t hash, size_t mask) {
    // The low hash bits also pick the shard; mix before masking.
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> 32) & mask;
  }

  void Reset(StateShardProtocol* s) {
    shard = s;
    num_touched = 0;
    std::fill(index.begin(), index.end(), 0);
  }

  /// The touched entry for `key`, or null; `*home` becomes the index slot
  /// where a new entry for it goes.
  Touched* Find(std::string_view key, uint64_t hash, size_t* home) {
    if (2 * (num_touched + 1) > index.size()) Grow();
    const size_t mask = index.size() - 1;
    for (size_t i = Home(hash, mask);; i = (i + 1) & mask) {
      const uint32_t e = index[i];
      if (e == 0) {
        *home = i;
        return nullptr;
      }
      Touched& t = touched[e - 1];
      if (t.hash == hash && *t.slot.key == key) return &t;
    }
  }

  /// Appends a touched entry at index slot `home` (from Find).
  Touched& Add(size_t home, StateStore::Slot slot, uint64_t hash,
               int64_t wstart) {
    if (num_touched == touched.size()) touched.emplace_back();
    Touched& t = touched[num_touched++];
    t.slot = slot;
    t.hash = hash;
    t.wstart = wstart;
    index[home] = static_cast<uint32_t>(num_touched);
    return t;
  }

  void Grow() {
    index.assign(std::max<size_t>(64, 2 * index.size()), 0);
    const size_t mask = index.size() - 1;
    for (size_t j = 0; j < num_touched; ++j) {
      size_t i = Home(touched[j].hash, mask);
      while (index[i] != 0) i = (i + 1) & mask;
      index[i] = static_cast<uint32_t>(j + 1);
    }
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
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary: stateful operators evaluate
  // expressions and encode state keys over whole batches, so selection
  // views compact here (docs/VECTORIZED_EXEC.md).
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  const size_t P = in.size();
  const bool windowed = window_expr_ != nullptr;
  const int64_t watermark = ctx->watermark_micros;
  const int64_t window_size = windowed ? window_expr_->size_micros() : 0;
  const bool needs_args = [&] {
    for (const AggSpec& a : aggregates_) {
      if (a.func != AggFunc::kCountAll) return true;
    }
    return false;
  }();

  // Stores open serially (lazy open does recovery I/O under the manager
  // lock); the shard tasks below then touch disjoint shards lock-free.
  std::vector<ShardedStateStore*> stores(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(stores[p],
                        ctx->state->GetStore(op_id_, static_cast<int>(p)));
  }
  folds_.resize(P);
  for (size_t p = 0; p < P; ++p) {
    const int S = stores[p]->num_shards();
    folds_[p].resize(static_cast<size_t>(S));
    for (int s = 0; s < S; ++s) {
      folds_[p][static_cast<size_t>(s)].Reset(stores[p]->shard(s));
    }
  }

  // Dictionary-encoded string key column (docs/VECTORIZED_EXEC.md): the
  // state-key encoding of each distinct value is precooked once, and the
  // per-row hot loops append the precooked bytes — byte-identical to
  // EncodeValueTo by construction, but one hash per row instead of one
  // length-prefixed byte append per row per occurrence.
  struct KeyDict {
    std::vector<std::string> encoded;  // per distinct value (incl. null)
    std::vector<int32_t> codes;        // per row -> index into `encoded`
  };

  struct PartitionWork {
    std::vector<ColumnPtr> key_cols;
    std::vector<ColumnPtr> arg_cols;
    /// One dict per string-typed scalar group key column, else null.
    std::vector<std::unique_ptr<KeyDict>> key_dicts;
    int chunks = 1;
    std::vector<KeyedEntries> buckets;         // chunks x shards
    // Output in shard-index order: one batch on the fused path, one per
    // shard on the staged path.
    std::vector<RecordBatchPtr> shard_out;
  };
  std::vector<PartitionWork> work(P);

  // Stage 1 [eval]: vectorized evaluation of group keys and agg arguments.
  {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      tasks.push_back([this, &in, &work, p]() -> Status {
        const RecordBatch& input = *in[p];
        PartitionWork& w = work[p];
        w.key_cols.resize(group_exprs_.size());
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          if (static_cast<int>(g) == window_key_index_) {
            SS_ASSIGN_OR_RETURN(w.key_cols[g],
                                window_expr_->time()->EvalBatch(input));
          } else {
            SS_ASSIGN_OR_RETURN(w.key_cols[g],
                                group_exprs_[g].expr->EvalBatch(input));
          }
        }
        w.arg_cols.resize(aggregates_.size());
        for (size_t a = 0; a < aggregates_.size(); ++a) {
          if (aggregates_[a].func == AggFunc::kCountAll) continue;
          SS_ASSIGN_OR_RETURN(w.arg_cols[a],
                              aggregates_[a].arg->EvalBatch(input));
        }
        // Dictionary-encode string key columns for the encode loops below.
        w.key_dicts.resize(group_exprs_.size());
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          if (static_cast<int>(g) == window_key_index_) continue;
          const Column& col = *w.key_cols[g];
          if (PhysicalKindOf(col.type()) != PhysicalKind::kString) continue;
          auto dict = std::make_unique<KeyDict>();
          const int64_t rows = col.size();
          dict->codes.resize(static_cast<size_t>(rows));
          std::unordered_map<std::string_view, int32_t> index;
          int32_t null_code = -1;
          for (int64_t i = 0; i < rows; ++i) {
            if (col.IsNull(i)) {
              if (null_code < 0) {
                null_code = static_cast<int32_t>(dict->encoded.size());
                dict->encoded.emplace_back();
                col.EncodeValueTo(i, &dict->encoded.back());
              }
              dict->codes[static_cast<size_t>(i)] = null_code;
              continue;
            }
            const std::string& v = col.StringAt(i);
            auto [it, inserted] = index.emplace(
                std::string_view(v),
                static_cast<int32_t>(dict->encoded.size()));
            if (inserted) {
              dict->encoded.emplace_back();
              col.EncodeValueTo(i, &dict->encoded.back());
            }
            dict->codes[static_cast<size_t>(i)] = it->second;
          }
          w.key_dicts[g] = std::move(dict);
        }
        return Status::OK();
      });
    }
    SS_RETURN_IF_ERROR(
        ctx->RunStage(op_id_, name() + "[eval]", std::move(tasks)));
  }

  // Finalizer shared by the shard tasks (pure: decode key, append window
  // end, finalize aggregates).
  auto finalize = [&](const std::string& enc_key,
                      const Row& state) -> Result<Row> {
    Row out_row;
    out_row.reserve(static_cast<size_t>(schema_->num_fields()));
    size_t pos = 0;
    SS_RETURN_IF_ERROR(DecodeRowInto(enc_key, &pos, &out_row));  // the keys
    if (windowed) {
      const auto start = out_row.begin() + window_key_index_;
      out_row.insert(start + 1, Value::Timestamp(start->int64_value() +
                                                 window_size));  // window_end
    }
    Row finals = FinalizeAggState(aggregates_, state);
    out_row.insert(out_row.end(), std::make_move_iterator(finals.begin()),
                   std::make_move_iterator(finals.end()));
    return out_row;
  };

  // Late data: rows for a window already closed by the watermark are
  // dropped before they reach state, and closed windows are evicted.
  auto closed = [&](int64_t wstart) {
    return windowed && watermark != INT64_MIN &&
           wstart + window_size <= watermark;
  };

  // The fold body, shared by both execution paths (see ShardFold). Both
  // paths feed a shard's rows in input order (the staged path's chunks are
  // contiguous in-order row ranges visited in chunk order), so the touched
  // order, and with it update-mode emission order, is the same on both.
  const Row init_state = InitAggState(aggregates_);
  auto fold_row = [&](ShardFold& f, std::string_view enc, uint64_t hash,
                      int64_t wstart, const Row& args) -> Status {
    size_t home = 0;
    ShardFold::Touched* t = f.Find(enc, hash, &home);
    if (t == nullptr) {
      f.key_buf.assign(enc);
      StateStore::Slot slot = f.shard->FindOrCreate(f.key_buf);
      t = &f.Add(home, slot, hash, wstart);
      if (slot.created) {
        t->state = init_state;
      } else {
        size_t pos = 0;
        SS_RETURN_IF_ERROR(DecodeRowInto(*slot.value, &pos, &t->state));
      }
    }
    UpdateAggState(aggregates_, args, &t->state);
    return Status::OK();
  };

  // Encode the touched states back, then emit per output mode
  // (batch/complete: everything; append: finals of windows closed by the
  // watermark; update: the touched keys minus evicted ones), evicting
  // closed windows along the way.
  auto finish_shard = [&](ShardFold& f, std::vector<Row>& out_rows) -> Status {
    StateShardProtocol* shard = f.shard;
    for (size_t j = 0; j < f.num_touched; ++j) {
      ShardFold::Touched& t = f.touched[j];
      t.slot.value->clear();
      EncodeRow(t.state, t.slot.value);
    }

    if (ctx->is_batch) {
      // One-shot batch run: emit everything, no eviction needed.
      Status iter_status;
      shard->ForEach([&](const std::string& k, const std::string& v) {
        auto state = DecodeRow(v);
        if (!state.ok()) {
          iter_status = state.status();
          return;
        }
        auto row = finalize(k, *state);
        if (!row.ok()) {
          iter_status = row.status();
          return;
        }
        out_rows.push_back(std::move(*row));
      });
      return iter_status;
    }

    // Eviction of closed windows (and append-mode emission of their
    // finals), shard-local.
    if (windowed && watermark != INT64_MIN) {
      std::vector<std::string> evict;
      Status iter_status;
      shard->ForEach([&](const std::string& k, const std::string& v) {
        auto key = DecodeRow(k);
        if (!key.ok()) {
          iter_status = key.status();
          return;
        }
        if (closed((*key)[static_cast<size_t>(window_key_index_)]
                       .int64_value())) {
          if (ctx->mode == OutputMode::kAppend) {
            auto state = DecodeRow(v);
            if (!state.ok()) {
              iter_status = state.status();
              return;
            }
            auto row = finalize(k, *state);
            if (!row.ok()) {
              iter_status = row.status();
              return;
            }
            out_rows.push_back(std::move(*row));
          }
          evict.push_back(k);
        }
      });
      SS_RETURN_IF_ERROR(iter_status);
      for (const std::string& k : evict) shard->Remove(k);
    }

    if (ctx->mode == OutputMode::kUpdate) {
      for (size_t j = 0; j < f.num_touched; ++j) {
        const ShardFold::Touched& t = f.touched[j];
        if (closed(t.wstart)) continue;  // evicted above; never re-emit
        SS_ASSIGN_OR_RETURN(Row row, finalize(*t.slot.key, t.state));
        out_rows.push_back(std::move(row));
      }
    } else if (ctx->mode == OutputMode::kComplete) {
      Status iter_status;
      shard->ForEach([&](const std::string& k, const std::string& v) {
        auto state = DecodeRow(v);
        if (!state.ok()) {
          iter_status = state.status();
          return;
        }
        auto row = finalize(k, *state);
        if (!row.ok()) {
          iter_status = row.status();
          return;
        }
        out_rows.push_back(std::move(*row));
      });
      SS_RETURN_IF_ERROR(iter_status);
    }
    return Status::OK();
  };

  // Aggregate arguments of input row i (count(*) needs none; its slot
  // stays null).
  auto load_args = [&](const PartitionWork& w, int64_t i, Row* args) {
    if (!needs_args) return;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      if (aggregates_[a].func != AggFunc::kCountAll) {
        (*args)[a] = w.arg_cols[a]->ValueAt(i);
      }
    }
  };

  // The state keys of input row i: one per window of the row's event time
  // that the watermark has not closed (none for a null event time; one
  // dummy window when not windowed), each encoded byte-identically to
  // EncodeRow but without boxing, and passed to emit(wstart, enc). Both
  // execution paths key rows through this one loop.
  auto for_each_key = [&](const PartitionWork& w, int64_t i,
                          std::vector<int64_t>& window_starts,
                          std::string& enc, auto&& emit) -> Status {
    window_starts.clear();
    if (windowed) {
      const Column& time_col =
          *w.key_cols[static_cast<size_t>(window_key_index_)];
      if (time_col.IsNull(i)) return Status::OK();  // no event time
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
          char buf[8];
          std::memcpy(buf, &wstart, 8);
          enc.append(buf, 8);
        } else if (const KeyDict* dict = w.key_dicts[g].get()) {
          enc.append(dict->encoded[static_cast<size_t>(
              dict->codes[static_cast<size_t>(i)])]);
        } else {
          w.key_cols[g]->EncodeValueTo(i, &enc);
        }
      }
      SS_RETURN_IF_ERROR(emit(wstart, enc));
    }
    return Status::OK();
  };

  // When partition parallelism alone saturates the scheduler, per-shard
  // tasks buy no extra concurrency and the staged split's key
  // materialization is an extra full pass over the data for nothing. Fuse
  // instead: one task per partition routes rows straight into per-shard
  // folds and finishes each shard in index order — byte-identical to the
  // staged path (see the fold body above).
  const bool fused = ctx->scheduler->parallelism() <= static_cast<int>(P);
  if (fused) {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      const int64_t n = in[p]->num_rows();
      work[p].shard_out.resize(1);
      tasks.push_back([this, &work, &fold_row, &finish_shard, &load_args,
                       &for_each_key, p, S, n]() -> Status {
        PartitionWork& w = work[p];
        std::vector<ShardFold>& folds = folds_[p];
        Row args(aggregates_.size());
        std::vector<int64_t> window_starts;
        std::string enc;
        for (int64_t i = 0; i < n; ++i) {
          load_args(w, i, &args);
          SS_RETURN_IF_ERROR(for_each_key(
              w, i, window_starts, enc,
              [&](int64_t wstart, const std::string& key) -> Status {
                const uint64_t hash = ShardedStateStore::StableHashKey(key);
                return fold_row(
                    folds[static_cast<size_t>(hash % static_cast<uint64_t>(S))],
                    key, hash, wstart, args);
              }));
        }
        std::vector<Row> rows;
        for (ShardFold& fold : folds) {
          SS_RETURN_IF_ERROR(finish_shard(fold, rows));
        }
        SS_ASSIGN_OR_RETURN(w.shard_out[0],
                            RecordBatch::FromRows(schema_, rows));
        return Status::OK();
      });
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));
  }

  // Stage 2 [split]: enumerate window starts, drop late rows, serialize
  // each row's group key (byte-identical to EncodeRow but without boxing),
  // and route it to a shard bucket by key hash. Chunked so one big
  // partition still splits in parallel. Skipped on the fused path.
  if (!fused) {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      const int64_t n = in[p]->num_rows();
      work[p].chunks = SplitChunks(n, S);
      work[p].buckets.resize(static_cast<size_t>(work[p].chunks) *
                             static_cast<size_t>(S));
      work[p].shard_out.resize(static_cast<size_t>(S));
      const int C = work[p].chunks;
      const int64_t per = (n + C - 1) / C;
      for (int c = 0; c < C; ++c) {
        const int64_t lo = c * per;
        const int64_t hi = std::min(n, lo + per);
        tasks.push_back([&work, &for_each_key, p, c, lo, hi,
                         S]() -> Status {
          PartitionWork& w = work[p];
          KeyedEntries* buckets =
              &w.buckets[static_cast<size_t>(c) * static_cast<size_t>(S)];
          std::vector<int64_t> window_starts;
          std::string enc;
          for (int64_t i = lo; i < hi; ++i) {
            SS_RETURN_IF_ERROR(for_each_key(
                w, i, window_starts, enc,
                [&](int64_t wstart, const std::string& key) -> Status {
                  buckets[ShardOfKey(key, S)].Add(i, wstart, key);
                  return Status::OK();
                }));
          }
          return Status::OK();
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_,
        name() + "[split]",
        CoalesceTasks(std::move(tasks), ShardStageTaskCap(ctx, P))));
  }

  // Stage 3: fold each shard's bucketed rows into its state and emit. One
  // task per (partition, shard); a shard is only touched by its own task.
  // Skipped on the fused path.
  if (!fused) {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      for (int s = 0; s < S; ++s) {
        tasks.push_back([this, &work, &fold_row, &finish_shard, &load_args,
                         p, s, S]() -> Status {
          PartitionWork& w = work[p];
          ShardFold& fold = folds_[p][static_cast<size_t>(s)];
          Row args(aggregates_.size());
          for (int c = 0; c < w.chunks; ++c) {
            const KeyedEntries& bucket =
                w.buckets[static_cast<size_t>(c) * static_cast<size_t>(S) +
                          static_cast<size_t>(s)];
            SS_RETURN_IF_ERROR(ForEachEntry(
                bucket,
                [&](int32_t i, int64_t wstart, std::string_view enc)
                    -> Status {
                  load_args(w, i, &args);
                  return fold_row(fold, enc,
                                  ShardedStateStore::StableHashKey(enc),
                                  wstart, args);
                }));
          }
          std::vector<Row> rows;
          SS_RETURN_IF_ERROR(finish_shard(fold, rows));
          SS_ASSIGN_OR_RETURN(w.shard_out[static_cast<size_t>(s)],
                              RecordBatch::FromRows(schema_, rows));
          return Status::OK();
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_,
        name(), CoalesceTasks(std::move(tasks), ShardStageTaskCap(ctx, P))));
  }

  // Deterministic merge: shard outputs concatenated in shard-index order.
  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    out[p] = RecordBatch::Concat(schema_, work[p].shard_out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DedupExec
// ---------------------------------------------------------------------------

DedupExec::DedupExec(int op_id, PhysOpPtr child)
    : PhysOp(op_id, child->schema(), {child}) {}

Result<std::vector<RecordBatchPtr>> DedupExec::ExecuteImpl(ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary: stateful operators evaluate
  // expressions and encode state keys over whole batches, so selection
  // views compact here (docs/VECTORIZED_EXEC.md).
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  const size_t P = in.size();
  std::vector<ShardedStateStore*> stores(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(stores[p],
                        ctx->state->GetStore(op_id_, static_cast<int>(p)));
  }

  struct PartitionWork {
    int chunks = 1;
    std::vector<KeyedEntries> buckets;  // chunks x shards
    std::vector<uint8_t> mask;
  };
  std::vector<PartitionWork> work(P);

  // Split: encode each row (the dedup key is the whole row) and route it to
  // a shard bucket.
  {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      const int64_t n = in[p]->num_rows();
      work[p].chunks = SplitChunks(n, S);
      work[p].buckets.resize(static_cast<size_t>(work[p].chunks) *
                             static_cast<size_t>(S));
      work[p].mask.assign(static_cast<size_t>(n), 0);
      const int C = work[p].chunks;
      const int64_t per = (n + C - 1) / C;
      for (int c = 0; c < C; ++c) {
        const int64_t lo = c * per;
        const int64_t hi = std::min(n, lo + per);
        tasks.push_back([&in, &work, p, c, lo, hi, S]() -> Status {
          KeyedEntries* buckets =
              &work[p].buckets[static_cast<size_t>(c) *
                               static_cast<size_t>(S)];
          std::string enc;
          for (int64_t i = lo; i < hi; ++i) {
            enc.clear();
            EncodeRow(in[p]->RowAt(i), &enc);
            buckets[ShardOfKey(enc, S)].Add(i, 0, enc);
          }
          return Status::OK();
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_,
        name() + "[split]",
        CoalesceTasks(std::move(tasks), ShardStageTaskCap(ctx, P))));
  }

  // Probe: each shard task marks its first-seen rows in the partition's
  // shared mask. Writes land on disjoint bytes (a row routes to exactly one
  // shard), and the mask preserves input order, so the output is
  // byte-identical whatever the shard count.
  {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      for (int s = 0; s < S; ++s) {
        tasks.push_back([&work, &stores, p, s, S]() -> Status {
          StateShardProtocol* shard = stores[p]->shard(s);
          PartitionWork& w = work[p];
          for (int c = 0; c < w.chunks; ++c) {
            SS_RETURN_IF_ERROR(ForEachEntry(
                w.buckets[static_cast<size_t>(c) * static_cast<size_t>(S) +
                          static_cast<size_t>(s)],
                [&](int32_t i, int64_t, std::string_view enc) -> Status {
                  std::string key(enc);
                  if (!shard->Contains(key)) {
                    shard->Put(key, "");
                    w.mask[static_cast<size_t>(i)] = 1;
                  }
                  return Status::OK();
                }));
          }
          return Status::OK();
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_,
        name(), CoalesceTasks(std::move(tasks), ShardStageTaskCap(ctx, P))));
  }

  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) out[p] = in[p]->Filter(work[p].mask);
  return out;
}

// ---------------------------------------------------------------------------
// StreamStaticJoinExec
// ---------------------------------------------------------------------------

StreamStaticJoinExec::StreamStaticJoinExec(
    int op_id, PhysOpPtr stream_child, SchemaPtr out_schema,
    std::vector<ExprPtr> stream_keys, SchemaPtr static_schema,
    std::vector<Row> static_rows, std::vector<ExprPtr> static_keys,
    std::vector<int> stream_output_indices,
    std::vector<int> static_output_indices, bool stream_first,
    bool preserve_stream, std::vector<std::pair<int, int>> static_from_stream)
    : PhysOp(op_id, std::move(out_schema), {std::move(stream_child)}),
      stream_keys_(std::move(stream_keys)),
      static_schema_(std::move(static_schema)),
      stream_output_indices_(std::move(stream_output_indices)),
      static_output_indices_(std::move(static_output_indices)),
      stream_first_(stream_first),
      preserve_stream_(preserve_stream),
      static_from_stream_(std::move(static_from_stream)) {
  // Materialize the static side into a broadcast hash table once.
  for (Row& row : static_rows) {
    Row key;
    key.reserve(static_keys.size());
    for (const ExprPtr& e : static_keys) {
      auto v = e->EvalRow(row);
      SS_CHECK(v.ok()) << v.status().ToString();
      key.push_back(std::move(*v));
    }
    static_by_key_[std::move(key)].push_back(std::move(row));
  }
  // Unboxed probe index for a single int64-backed key.
  if (stream_keys_.size() == 1) {
    int64_key_ = true;
    for (const auto& [key, rows] : static_by_key_) {
      if (PhysicalKindOf(key[0].type()) != PhysicalKind::kInt64) {
        int64_key_ = false;
        break;
      }
      auto& bucket = static_by_int64_[key[0].int64_value()];
      for (const Row& r : rows) bucket.push_back(&r);
    }
    if (!int64_key_) static_by_int64_.clear();
  }
}

Result<std::vector<RecordBatchPtr>> StreamStaticJoinExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary: join probing evaluates key expressions
  // over whole batches, so selection views compact here.
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  std::vector<RecordBatchPtr> out(in.size());
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < in.size(); ++p) {
    tasks.push_back([this, &in, &out, p]() -> Status {
      SS_ASSIGN_OR_RETURN(RecordBatchPtr batch, ExecutePartition(*in[p]));
      out[p] = std::move(batch);
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));
  return out;
}

Result<RecordBatchPtr> StreamStaticJoinExec::ExecutePartition(
    const RecordBatch& input) {
  const int64_t n = input.num_rows();
  // Vectorized key evaluation, then per-row hash probe; output columns are
  // gathered typed (no per-cell boxing for the stream side).
  std::vector<ColumnPtr> key_cols(stream_keys_.size());
  for (size_t k = 0; k < stream_keys_.size(); ++k) {
    SS_ASSIGN_OR_RETURN(key_cols[k], stream_keys_[k]->EvalBatch(input));
  }
  std::vector<int64_t> emit_stream_index;
  std::vector<const Row*> emit_static_row;  // nullptr = null-padded
  if (int64_key_ &&
      PhysicalKindOf(key_cols[0]->type()) == PhysicalKind::kInt64) {
    // Unboxed probe on the single int64 key.
    const Column& kc = *key_cols[0];
    for (int64_t i = 0; i < n; ++i) {
      if (!kc.IsNull(i)) {
        auto it = static_by_int64_.find(kc.Int64At(i));
        if (it != static_by_int64_.end()) {
          for (const Row* match : it->second) {
            emit_stream_index.push_back(i);
            emit_static_row.push_back(match);
          }
          continue;
        }
      }
      if (preserve_stream_) {
        emit_stream_index.push_back(i);
        emit_static_row.push_back(nullptr);
      }
    }
  } else {
    Row key(stream_keys_.size());
    for (int64_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < key_cols.size(); ++k) {
        key[k] = key_cols[k]->ValueAt(i);
      }
      auto it = static_by_key_.find(key);
      if (it != static_by_key_.end()) {
        for (const Row& match : it->second) {
          emit_stream_index.push_back(i);
          emit_static_row.push_back(&match);
        }
      } else if (preserve_stream_) {
        emit_stream_index.push_back(i);
        emit_static_row.push_back(nullptr);
      }
    }
  }

  // Build output columns.
  auto build_stream_column = [&](int src_idx) {
    const Column& src = *input.column(src_idx);
    ColumnPtr dst = Column::Make(src.type());
    dst->Reserve(static_cast<int64_t>(emit_stream_index.size()));
    for (int64_t i : emit_stream_index) AppendFromColumn(src, i, dst.get());
    return dst;
  };
  auto build_static_column = [&](int src_idx, TypeId type) {
    // USING-join key coalescing: take the stream's key value when there is
    // no static match (see constructor comment).
    int coalesce_from = -1;
    for (const auto& [static_idx, stream_idx] : static_from_stream_) {
      if (static_idx == src_idx) coalesce_from = stream_idx;
    }
    ColumnPtr dst = Column::Make(type);
    dst->Reserve(static_cast<int64_t>(emit_static_row.size()));
    for (size_t e = 0; e < emit_static_row.size(); ++e) {
      const Row* row = emit_static_row[e];
      if (row != nullptr) {
        dst->AppendValue((*row)[static_cast<size_t>(src_idx)]);
      } else if (coalesce_from >= 0) {
        dst->AppendFrom(*input.column(coalesce_from), emit_stream_index[e]);
      } else {
        dst->AppendNull();
      }
    }
    return dst;
  };

  std::vector<ColumnPtr> columns;
  columns.reserve(static_cast<size_t>(schema_->num_fields()));
  if (stream_first_) {
    for (int idx : stream_output_indices_) {
      columns.push_back(build_stream_column(idx));
    }
    for (int idx : static_output_indices_) {
      columns.push_back(
          build_static_column(idx, static_schema_->field(idx).type));
    }
  } else {
    for (int idx : static_output_indices_) {
      columns.push_back(
          build_static_column(idx, static_schema_->field(idx).type));
    }
    for (int idx : stream_output_indices_) {
      columns.push_back(build_stream_column(idx));
    }
  }
  return RecordBatch::Make(schema_, std::move(columns));
}

// ---------------------------------------------------------------------------
// StreamStreamJoinExec
// ---------------------------------------------------------------------------

namespace {

// State value codec for one join side's rows under one key:
// repeated [matched byte][encoded row].
std::string EncodeSideRows(const std::vector<std::pair<bool, Row>>& rows) {
  std::string out;
  for (const auto& [matched, row] : rows) {
    out.push_back(matched ? 1 : 0);
    EncodeRow(row, &out);
  }
  return out;
}

Result<std::vector<std::pair<bool, Row>>> DecodeSideRows(
    const std::string& data) {
  std::vector<std::pair<bool, Row>> rows;
  size_t pos = 0;
  while (pos < data.size()) {
    bool matched = data[pos++] != 0;
    SS_ASSIGN_OR_RETURN(Row row, DecodeRow(data, &pos));
    rows.emplace_back(matched, std::move(row));
  }
  return rows;
}

}  // namespace

StreamStreamJoinExec::StreamStreamJoinExec(
    int op_id, PhysOpPtr left, PhysOpPtr right, SchemaPtr out_schema,
    std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
    JoinType join_type, std::vector<int> right_output_indices,
    int left_time_index, int right_time_index,
    std::vector<std::pair<int, int>> left_from_right)
    : PhysOp(op_id, std::move(out_schema), {left, right}),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      join_type_(join_type),
      right_output_indices_(std::move(right_output_indices)),
      left_time_index_(left_time_index),
      right_time_index_(right_time_index),
      left_from_right_(std::move(left_from_right)) {
  left_arity_ = children_[0]->schema()->num_fields();
}

Row StreamStreamJoinExec::JoinedRow(const Row* left, const Row* right) const {
  Row out;
  out.reserve(static_cast<size_t>(schema_->num_fields()));
  if (left != nullptr) {
    out.insert(out.end(), left->begin(), left->end());
  } else {
    out.insert(out.end(), static_cast<size_t>(left_arity_), Value::Null());
    // USING-join key coalescing for null-padded right-outer results.
    if (right != nullptr) {
      for (const auto& [left_idx, right_idx] : left_from_right_) {
        out[static_cast<size_t>(left_idx)] =
            (*right)[static_cast<size_t>(right_idx)];
      }
    }
  }
  for (int idx : right_output_indices_) {
    out.push_back(right != nullptr ? (*right)[static_cast<size_t>(idx)]
                                   : Value::Null());
  }
  return out;
}

Result<std::vector<RecordBatchPtr>> StreamStreamJoinExec::ExecuteImpl(
    ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> left_in,
                      children_[0]->Execute(ctx));
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> right_in,
                      children_[1]->Execute(ctx));
  // Materialize-on-demand boundary (selection views compact here).
  for (RecordBatchPtr& b : left_in) b = RecordBatch::Materialize(b);
  for (RecordBatchPtr& b : right_in) b = RecordBatch::Materialize(b);
  if (left_in.size() != right_in.size()) {
    return Status::Internal("stream-stream join sides not co-partitioned");
  }
  const size_t P = left_in.size();
  std::vector<ShardedStateStore*> stores(P);
  for (size_t p = 0; p < P; ++p) {
    SS_ASSIGN_OR_RETURN(stores[p],
                        ctx->state->GetStore(op_id_, static_cast<int>(p)));
  }

  struct PartitionWork {
    // Per-shard buckets for each side. The shard is chosen by the hash of
    // the join key *without* the 'L'/'R' side byte, so both sides of a key
    // land in the same shard (the join needs them together); store keys
    // keep the side prefix within the shard.
    std::vector<KeyedEntries> left_buckets;
    std::vector<KeyedEntries> right_buckets;
    std::vector<std::vector<Row>> shard_rows;
  };
  std::vector<PartitionWork> work(P);

  // Split stage: evaluate join keys (vectorized) and route each side's rows
  // to shard buckets. One task per (partition, side).
  {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      work[p].left_buckets.resize(static_cast<size_t>(S));
      work[p].right_buckets.resize(static_cast<size_t>(S));
      work[p].shard_rows.resize(static_cast<size_t>(S));
      for (int side = 0; side < 2; ++side) {
        tasks.push_back([this, &left_in, &right_in, &work, p, side,
                         S]() -> Status {
          const RecordBatch& input =
              side == 0 ? *left_in[p] : *right_in[p];
          const std::vector<ExprPtr>& keys =
              side == 0 ? left_keys_ : right_keys_;
          std::vector<KeyedEntries>& buckets =
              side == 0 ? work[p].left_buckets : work[p].right_buckets;
          std::vector<ColumnPtr> key_cols(keys.size());
          for (size_t k = 0; k < keys.size(); ++k) {
            SS_ASSIGN_OR_RETURN(key_cols[k], keys[k]->EvalBatch(input));
          }
          std::string enc;
          const int64_t n = input.num_rows();
          for (int64_t i = 0; i < n; ++i) {
            enc.clear();
            enc.push_back(static_cast<char>(keys.size()));
            for (size_t k = 0; k < key_cols.size(); ++k) {
              key_cols[k]->EncodeValueTo(i, &enc);
            }
            buckets[static_cast<size_t>(ShardOfKey(enc, S))].Add(i, 0, enc);
          }
          return Status::OK();
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_,
        name() + "[split]",
        CoalesceTasks(std::move(tasks), ShardStageTaskCap(ctx, P))));
  }

  // Shard stage: the symmetric-hash passes, restricted to each shard's
  // bucketed rows, in input order — so the joined multiset per shard is
  // shard-count-invariant.
  {
    std::vector<std::function<Status()>> tasks;
    for (size_t p = 0; p < P; ++p) {
      const int S = stores[p]->num_shards();
      for (int s = 0; s < S; ++s) {
        tasks.push_back([this, ctx, &left_in, &right_in, &work, &stores, p,
                         s]() -> Status {
          StateShardProtocol* shard = stores[p]->shard(s);
          PartitionWork& w = work[p];
          std::vector<Row>& out_rows = w.shard_rows[static_cast<size_t>(s)];

          // Working cache of decoded side-state. Tracks how many rows were
          // already stored (`base_n`) and whether stored rows changed
          // (`dirty`), so the flush can append just the new suffix for
          // grow-only keys instead of rewriting the value.
          struct CacheEntry {
            std::vector<std::pair<bool, Row>> rows;
            size_t base_n = 0;
            bool dirty = false;
          };
          std::unordered_map<std::string, CacheEntry> cache;
          auto load = [&](const std::string& store_key)
              -> Result<CacheEntry*> {
            auto it = cache.find(store_key);
            if (it == cache.end()) {
              CacheEntry entry;
              std::optional<std::string> stored = shard->Get(store_key);
              if (stored.has_value()) {
                SS_ASSIGN_OR_RETURN(entry.rows, DecodeSideRows(*stored));
                entry.base_n = entry.rows.size();
              }
              it = cache.emplace(store_key, std::move(entry)).first;
            }
            return &it->second;
          };

          // Pass 1: probe new left rows against the stored right side
          // (prior epochs), appending them to left state.
          SS_RETURN_IF_ERROR(ForEachEntry(
              w.left_buckets[static_cast<size_t>(s)],
              [&](int32_t i, int64_t, std::string_view enc) -> Status {
                Row lrow = left_in[p]->RowAt(i);
                std::string lkey = "L";
                lkey.append(enc);
                std::string rkey = lkey;
                rkey[0] = 'R';
                SS_ASSIGN_OR_RETURN(CacheEntry * right_entry, load(rkey));
                bool matched = false;
                for (size_t k = 0; k < right_entry->rows.size(); ++k) {
                  auto& [rmatched, rrow] = right_entry->rows[k];
                  out_rows.push_back(JoinedRow(&lrow, &rrow));
                  if (!rmatched && k < right_entry->base_n) {
                    right_entry->dirty = true;  // stored flag flips
                  }
                  rmatched = true;
                  matched = true;
                }
                SS_ASSIGN_OR_RETURN(CacheEntry * left_entry, load(lkey));
                left_entry->rows.emplace_back(matched, std::move(lrow));
                return Status::OK();
              }));
          // Pass 2: probe new right rows against left state (which now
          // includes this epoch's left rows, covering intra-epoch matches
          // exactly once).
          SS_RETURN_IF_ERROR(ForEachEntry(
              w.right_buckets[static_cast<size_t>(s)],
              [&](int32_t i, int64_t, std::string_view enc) -> Status {
                Row rrow = right_in[p]->RowAt(i);
                std::string rkey = "R";
                rkey.append(enc);
                std::string lkey = rkey;
                lkey[0] = 'L';
                SS_ASSIGN_OR_RETURN(CacheEntry * left_entry, load(lkey));
                bool matched = false;
                for (size_t k = 0; k < left_entry->rows.size(); ++k) {
                  auto& [lmatched, lrow] = left_entry->rows[k];
                  out_rows.push_back(JoinedRow(&lrow, &rrow));
                  if (!lmatched && k < left_entry->base_n) {
                    left_entry->dirty = true;
                  }
                  lmatched = true;
                  matched = true;
                }
                SS_ASSIGN_OR_RETURN(CacheEntry * right_entry, load(rkey));
                right_entry->rows.emplace_back(matched, std::move(rrow));
                return Status::OK();
              }));

          // Watermark-driven eviction: rows whose event time has fallen
          // below the watermark can no longer match. Unmatched rows on a
          // preserved outer side are emitted null-padded exactly once.
          const int64_t watermark = ctx->watermark_micros;
          const bool evicting =
              watermark != INT64_MIN &&
              (left_time_index_ >= 0 || right_time_index_ >= 0);
          if (evicting || ctx->is_batch) {
            // Pull every stored key of this shard into the cache so
            // eviction sees all state.
            std::vector<std::string> all_keys;
            shard->ForEach([&](const std::string& k, const std::string&) {
              all_keys.push_back(k);
            });
            for (const std::string& k : all_keys) {
              SS_RETURN_IF_ERROR(load(k).status());
            }
            for (auto& [store_key, entry] : cache) {
              const bool is_left = store_key[0] == 'L';
              const int time_index =
                  is_left ? left_time_index_ : right_time_index_;
              const bool preserved =
                  (is_left && join_type_ == JoinType::kLeftOuter) ||
                  (!is_left && join_type_ == JoinType::kRightOuter);
              std::vector<std::pair<bool, Row>> kept;
              for (auto& [matched, row] : entry.rows) {
                bool expire;
                if (ctx->is_batch) {
                  expire = true;  // batch run: finalize everything
                } else {
                  expire = time_index >= 0 &&
                           !row[static_cast<size_t>(time_index)].is_null() &&
                           row[static_cast<size_t>(time_index)]
                                   .int64_value() < watermark;
                }
                if (expire) {
                  if (preserved && !matched) {
                    out_rows.push_back(is_left ? JoinedRow(&row, nullptr)
                                               : JoinedRow(nullptr, &row));
                  }
                } else {
                  kept.emplace_back(matched, std::move(row));
                }
              }
              if (kept.size() != entry.rows.size()) entry.dirty = true;
              entry.rows = std::move(kept);
            }
          }

          // Flush: untouched entries are skipped, grow-only entries append
          // their new suffix, everything else is rewritten.
          for (const auto& [store_key, entry] : cache) {
            if (entry.rows.empty()) {
              if (entry.base_n > 0) shard->Remove(store_key);
            } else if (entry.dirty) {
              shard->Put(store_key, EncodeSideRows(entry.rows));
            } else if (entry.rows.size() > entry.base_n) {
              std::string tail;
              for (size_t k = entry.base_n; k < entry.rows.size(); ++k) {
                tail.push_back(entry.rows[k].first ? 1 : 0);
                EncodeRow(entry.rows[k].second, &tail);
              }
              SS_RETURN_IF_ERROR(shard->Append(store_key, tail));
            }
          }
          return Status::OK();
        });
      }
    }
    SS_RETURN_IF_ERROR(ctx->RunStage(op_id_,
        name(), CoalesceTasks(std::move(tasks), ShardStageTaskCap(ctx, P))));
  }

  // Deterministic merge in shard-index order.
  std::vector<RecordBatchPtr> out(P);
  for (size_t p = 0; p < P; ++p) {
    std::vector<Row> merged;
    size_t total = 0;
    for (const auto& sr : work[p].shard_rows) total += sr.size();
    merged.reserve(total);
    for (auto& sr : work[p].shard_rows) {
      merged.insert(merged.end(), std::make_move_iterator(sr.begin()),
                    std::make_move_iterator(sr.end()));
    }
    SS_ASSIGN_OR_RETURN(out[p], RecordBatch::FromRows(schema_, merged));
  }
  return out;
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
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Materialize-on-demand boundary (selection views compact here).
  for (RecordBatchPtr& b : in) b = RecordBatch::Materialize(b);
  std::vector<RecordBatchPtr> out(in.size());
  std::vector<std::function<Status()>> tasks;
  for (size_t p = 0; p < in.size(); ++p) {
    tasks.push_back([this, ctx, &in, &out, p]() -> Status {
      SS_ASSIGN_OR_RETURN(
          RecordBatchPtr batch,
          ExecutePartition(ctx, static_cast<int>(p), *in[p]));
      out[p] = std::move(batch);
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));
  return out;
}

Result<RecordBatchPtr> FlatMapGroupsWithStateExec::ExecutePartition(
    ExecContext* ctx, int partition, const RecordBatch& input) {
  SS_ASSIGN_OR_RETURN(ShardedStateStore * store,
                      ctx->state->GetStore(op_id_, partition));
  const int64_t now = ctx->clock != nullptr ? ctx->clock->NowMicros() : 0;
  const int64_t watermark = ctx->watermark_micros;

  // Group the input rows by key.
  std::vector<ColumnPtr> key_cols(key_exprs_.size());
  for (size_t k = 0; k < key_exprs_.size(); ++k) {
    SS_ASSIGN_OR_RETURN(key_cols[k], key_exprs_[k].expr->EvalBatch(input));
  }
  std::map<std::string, std::pair<Row, std::vector<Row>>> groups;
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    Row key(key_exprs_.size());
    for (size_t k = 0; k < key_cols.size(); ++k) {
      key[k] = key_cols[k]->ValueAt(i);
    }
    std::string enc;
    EncodeRow(key, &enc);
    auto& slot = groups[enc];
    slot.first = std::move(key);
    slot.second.push_back(input.RowAt(i));
  }

  std::vector<Row> out_rows;

  // State value codec: [fixed64 timeout_at][encoded user row].
  auto load_state = [&](const std::string& enc)
      -> Result<std::pair<std::optional<Row>, int64_t>> {
    std::optional<std::string> stored = store->Get(enc);
    if (!stored.has_value()) {
      return std::make_pair(std::optional<Row>(), INT64_MAX);
    }
    size_t pos = 0;
    uint64_t timeout_at;
    if (!GetFixed64(*stored, &pos, &timeout_at)) {
      return Status::Internal("corrupt group state");
    }
    SS_ASSIGN_OR_RETURN(Row row, DecodeRow(*stored, &pos));
    return std::make_pair(std::optional<Row>(std::move(row)),
                          static_cast<int64_t>(timeout_at));
  };

  auto invoke = [&](const std::string& enc, const Row& key,
                    const std::vector<Row>& values,
                    bool timed_out) -> Status {
    SS_ASSIGN_OR_RETURN(auto loaded, load_state(enc));
    GroupState state(std::move(loaded.first), watermark, now, timed_out);
    if (!timed_out) {
      // A pre-armed timeout stays armed unless the function re-arms it.
      state.SetTimeoutTimestamp(loaded.second);
    }
    SS_ASSIGN_OR_RETURN(std::vector<Row> results,
                        update_fn_(key, values, &state));
    if (require_single_output_ && results.size() != 1) {
      return Status::InvalidArgument(
          "mapGroupsWithState update function must return exactly one row, "
          "got " + std::to_string(results.size()));
    }
    for (Row& r : results) {
      if (static_cast<int>(r.size()) != schema_->num_fields()) {
        return Status::InvalidArgument(
            "mapGroupsWithState output row arity mismatch");
      }
      out_rows.push_back(std::move(r));
    }
    if (state.removed() || (timed_out && !state.updated())) {
      // Timed-out state that the function did not refresh is dropped
      // (matching Spark: a timeout without update removes nothing
      // automatically, but keeping it would re-fire forever; Spark requires
      // the function to update or remove — we default to remove).
      store->Remove(enc);
    } else if (state.exists()) {
      std::string buf;
      int64_t timeout_at =
          timeout_ == GroupStateTimeout::kNone ? INT64_MAX
                                               : state.timeout_at_micros();
      PutFixed64(&buf, static_cast<uint64_t>(timeout_at));
      EncodeRow(state.get(), &buf);
      store->Put(enc, std::move(buf));
    }
    return Status::OK();
  };

  for (const auto& [enc, group] : groups) {
    SS_RETURN_IF_ERROR(invoke(enc, group.first, group.second, false));
  }

  // Timeout sweep: keys not updated this trigger whose deadline passed
  // (processing time vs. watermark, §4.3.2).
  if (timeout_ != GroupStateTimeout::kNone && !ctx->is_batch) {
    const int64_t deadline_clock =
        timeout_ == GroupStateTimeout::kProcessingTime ? now : watermark;
    std::vector<std::pair<std::string, Row>> timed_out_keys;
    Status iter_status;
    store->ForEach([&](const std::string& enc, const std::string& v) {
      if (groups.count(enc)) return;
      size_t pos = 0;
      uint64_t timeout_at;
      if (!GetFixed64(v, &pos, &timeout_at)) {
        iter_status = Status::Internal("corrupt group state");
        return;
      }
      if (deadline_clock != INT64_MIN &&
          static_cast<int64_t>(timeout_at) <= deadline_clock) {
        auto key = DecodeRow(enc);
        if (!key.ok()) {
          iter_status = key.status();
          return;
        }
        timed_out_keys.emplace_back(enc, std::move(*key));
      }
    });
    SS_RETURN_IF_ERROR(iter_status);
    for (const auto& [enc, key] : timed_out_keys) {
      SS_RETURN_IF_ERROR(invoke(enc, key, {}, true));
    }
  }
  return RecordBatch::FromRows(schema_, out_rows);
}

}  // namespace sstreaming
