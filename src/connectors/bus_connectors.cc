#include "connectors/bus_connectors.h"

#include "common/logging.h"

namespace sstreaming {

BusSource::BusSource(MessageBus* bus, std::string topic, SchemaPtr schema)
    : bus_(bus),
      topic_(std::move(topic)),
      name_("bus:" + topic_),
      schema_(std::move(schema)) {
  auto np = bus_->NumPartitions(topic_);
  SS_CHECK(np.ok()) << "BusSource over unknown topic " << topic_;
  num_partitions_ = *np;
}

Result<std::vector<int64_t>> BusSource::LatestOffsets() const {
  return bus_->EndOffsets(topic_);
}

Result<RecordBatchPtr> BusSource::ReadPartition(int partition, int64_t start,
                                                int64_t end) const {
  return bus_->ReadBatch(topic_, partition, start, end, schema_);
}

Result<RecordBatchPtr> BusSource::ReadPartitionProjected(
    int partition, int64_t start, int64_t end,
    const std::vector<int>& columns) const {
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (int c : columns) fields.push_back(schema_->field(c));
  return bus_->ReadBatch(topic_, partition, start, end,
                         Schema::Make(std::move(fields)), &columns);
}

int64_t BusSource::OldestIngestMicros(int partition, int64_t start,
                                      int64_t end) const {
  auto oldest = bus_->OldestIngestMicros(topic_, partition, start, end);
  return oldest.ok() ? *oldest : 0;
}

BusSink::BusSink(MessageBus* bus, std::string topic)
    : bus_(bus), topic_(std::move(topic)) {}

Status BusSink::CommitEpoch(int64_t epoch, OutputMode /*mode*/,
                            int /*num_key_columns*/,
                            const std::vector<RecordBatchPtr>& batches) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (committed_.count(epoch)) return Status::OK();  // suppress re-commit
    committed_[epoch] = true;
  }
  SS_ASSIGN_OR_RETURN(int num_partitions, bus_->NumPartitions(topic_));
  if (batches.empty()) return Status::OK();
  RecordBatchPtr all = RecordBatch::Materialize(
      RecordBatch::Concat(batches[0]->schema(), batches));
  // Row hashes exactly as HashRow computes them over the boxed row.
  std::vector<uint64_t> hashes(static_cast<size_t>(all->num_rows()),
                               0x811C9DC5ULL);
  for (const ColumnPtr& column : all->columns()) column->HashInto(&hashes);
  std::vector<std::vector<int32_t>> per_partition(
      static_cast<size_t>(num_partitions));
  for (size_t i = 0; i < hashes.size(); ++i) {
    per_partition[hashes[i] % static_cast<uint64_t>(num_partitions)]
        .push_back(static_cast<int32_t>(i));
  }
  for (int p = 0; p < num_partitions; ++p) {
    const std::vector<int32_t>& rows = per_partition[static_cast<size_t>(p)];
    if (rows.empty()) continue;
    SS_RETURN_IF_ERROR(
        bus_->AppendBatch(topic_, p, *all->Gather(rows)).status());
  }
  return Status::OK();
}

}  // namespace sstreaming
