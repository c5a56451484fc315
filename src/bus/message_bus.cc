#include "bus/message_bus.h"

#include <algorithm>
#include <span>

namespace sstreaming {

Status MessageBus::CreateTopic(const std::string& topic, int num_partitions) {
  if (num_partitions < 1) {
    return Status::InvalidArgument("topic needs >= 1 partition");
  }
  std::lock_guard<std::mutex> lock(topics_mu_);
  if (topics_.find(topic) != topics_.end()) {
    return Status::AlreadyExists("topic " + topic + " already exists");
  }
  Topic& t = topics_[topic];
  t.partitions.reserve(static_cast<size_t>(num_partitions));
  for (int i = 0; i < num_partitions; ++i) {
    t.partitions.push_back(std::make_unique<Partition>());
  }
  return Status::OK();
}

bool MessageBus::HasTopic(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  return topics_.find(topic) != topics_.end();
}

Result<const MessageBus::Topic*> MessageBus::FindTopic(
    const std::string& topic) const {
  std::lock_guard<std::mutex> lock(topics_mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status::NotFound("unknown topic " + topic);
  }
  // Topics are never removed, so the pointer stays valid after unlocking.
  return const_cast<const Topic*>(&it->second);
}

Result<MessageBus::Partition*> MessageBus::FindPartition(
    const std::string& topic, int partition) const {
  SS_ASSIGN_OR_RETURN(const Topic* t, FindTopic(topic));
  if (partition < 0 || partition >= static_cast<int>(t->partitions.size())) {
    return Status::OutOfRange("partition out of range");
  }
  return t->partitions[static_cast<size_t>(partition)].get();
}

Result<int> MessageBus::NumPartitions(const std::string& topic) const {
  SS_ASSIGN_OR_RETURN(const Topic* t, FindTopic(topic));
  return static_cast<int>(t->partitions.size());
}

Result<int64_t> MessageBus::Append(const std::string& topic, int partition,
                                   Row row) {
  SS_ASSIGN_OR_RETURN(Partition * p, FindPartition(topic, partition));
  int64_t now = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t offset = p->log.size();
  SS_RETURN_IF_ERROR(p->log.AppendRows(std::span<const Row>(&row, 1), now));
  return offset;
}

Result<int64_t> MessageBus::AppendBatch(const std::string& topic,
                                        int partition,
                                        std::vector<Row> rows) {
  SS_ASSIGN_OR_RETURN(Partition * p, FindPartition(topic, partition));
  int64_t now = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t first = p->log.size();
  SS_RETURN_IF_ERROR(p->log.AppendRows(rows, now));
  return first;
}

Result<int64_t> MessageBus::AppendBatch(const std::string& topic,
                                        int partition,
                                        const RecordBatch& batch) {
  SS_ASSIGN_OR_RETURN(Partition * p, FindPartition(topic, partition));
  int64_t now = ingest_clock_ ? ingest_clock_->NowMicros() : 0;
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t first = p->log.size();
  SS_RETURN_IF_ERROR(p->log.AppendBatch(batch, now));
  return first;
}

Result<std::vector<Row>> MessageBus::Read(const std::string& topic,
                                          int partition, int64_t start,
                                          int64_t end) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t log_end = p->log.size();
  if (start < 0 || start > log_end) {
    return Status::OutOfRange("start offset " + std::to_string(start) +
                              " outside log [0, " + std::to_string(log_end) +
                              "]");
  }
  return p->log.ReadRows(start, std::min(end, log_end));
}

Result<RecordBatchPtr> MessageBus::ReadBatch(
    const std::string& topic, int partition, int64_t start, int64_t end,
    const SchemaPtr& schema, const std::vector<int>* projection) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  const int64_t log_end = p->log.size();
  if (start < 0 || start > log_end) {
    return Status::OutOfRange("start offset outside log");
  }
  return p->log.ReadBatch(start, std::min(end, log_end), schema, projection);
}

Result<int64_t> MessageBus::OldestIngestMicros(const std::string& topic,
                                               int partition, int64_t start,
                                               int64_t end) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  return p->log.OldestIngestMicros(start, end);
}

Result<int64_t> MessageBus::EndOffset(const std::string& topic,
                                      int partition) const {
  SS_ASSIGN_OR_RETURN(const Partition* p, FindPartition(topic, partition));
  std::lock_guard<std::mutex> lock(p->mu);
  return p->log.size();
}

Result<std::vector<int64_t>> MessageBus::EndOffsets(
    const std::string& topic) const {
  SS_ASSIGN_OR_RETURN(const Topic* t, FindTopic(topic));
  std::vector<int64_t> out;
  out.reserve(t->partitions.size());
  for (const auto& p : t->partitions) {
    std::lock_guard<std::mutex> lock(p->mu);
    out.push_back(p->log.size());
  }
  return out;
}

Result<int64_t> MessageBus::TotalRecords(const std::string& topic) const {
  SS_ASSIGN_OR_RETURN(std::vector<int64_t> ends, EndOffsets(topic));
  int64_t total = 0;
  for (int64_t e : ends) total += e;
  return total;
}

}  // namespace sstreaming
