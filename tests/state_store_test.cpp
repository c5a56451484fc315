#include "state/state_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/key_index.h"
#include "common/random.h"
#include "storage/fs.h"
#include "testing/failpoints.h"
#include "types/row.h"

namespace sstreaming {
namespace {

class StateStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sstreaming_state_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override {
    Failpoints::Instance().DisarmAll();
    RemoveDirRecursive(dir_).ok();
  }

  std::string dir_;
};

using Model = std::map<std::string, std::string>;

/// The store's live view (size, ApproxBytes, ForEach) equals `model`.
void ExpectMatchesModel(StateStore& store, const Model& model) {
  EXPECT_EQ(store.size(), static_cast<int64_t>(model.size()));
  int64_t bytes = 0;
  for (const auto& [k, v] : model) {
    bytes += static_cast<int64_t>(k.size() + v.size()) +
             StateStore::kEntryOverheadBytes;
  }
  EXPECT_EQ(store.ApproxBytes(), bytes);
  Model seen;
  store.ForEach([&](const std::string& k, const std::string& v, uint32_t) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "visited twice: " << k;
  });
  EXPECT_EQ(seen, model);
}

TEST_F(StateStoreTest, EmptyOpen) {
  auto store = StateStore::Open(dir_, 0);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 0);
  EXPECT_EQ((*store)->loaded_version(), 0);
  EXPECT_EQ((*store)->Get("k"), nullptr);
}

TEST_F(StateStoreTest, PutGetRemove) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  store->Put("a", "1");
  store->Put("b", "2");
  EXPECT_EQ(*store->Get("a"), "1");
  EXPECT_NE(store->Get("b"), nullptr);
  store->Remove("a");
  EXPECT_EQ(store->Get("a"), nullptr);
  EXPECT_EQ(store->size(), 1);
}

TEST_F(StateStoreTest, CommitAndRecoverExactVersion) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("k1", "v1");
    ASSERT_TRUE(store->Commit(1).ok());
    store->Put("k2", "v2");
    store->Remove("k1");
    ASSERT_TRUE(store->Commit(2).ok());
  }
  auto v1 = StateStore::Open(dir_, 1).TakeValue();
  EXPECT_EQ(v1->loaded_version(), 1);
  EXPECT_EQ(*v1->Get("k1"), "v1");
  EXPECT_EQ(v1->Get("k2"), nullptr);

  auto v2 = StateStore::Open(dir_, 2).TakeValue();
  EXPECT_EQ(v2->loaded_version(), 2);
  EXPECT_EQ(v2->Get("k1"), nullptr);
  EXPECT_EQ(*v2->Get("k2"), "v2");
}

TEST_F(StateStoreTest, RecoveryLoadsNewestVersionAtOrBelowRequest) {
  // Checkpoints may lag the requested epoch (paper: async checkpoints).
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("k", "v3");
    ASSERT_TRUE(store->Commit(3).ok());
  }
  auto store = StateStore::Open(dir_, 10).TakeValue();
  EXPECT_EQ(store->loaded_version(), 3) << "engine must replay epochs 4..10";
  EXPECT_EQ(*store->Get("k"), "v3");
}

TEST_F(StateStoreTest, DeltaChainAcrossManyCommits) {
  StateStore::Options opts;
  opts.snapshot_interval = 5;
  {
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    for (int64_t v = 1; v <= 17; ++v) {
      store->Put("key" + std::to_string(v), "val" + std::to_string(v));
      if (v % 3 == 0) store->Remove("key" + std::to_string(v - 1));
      ASSERT_TRUE(store->Commit(v).ok());
    }
    EXPECT_GT(store->delta_commits(), 0);
    EXPECT_GT(store->snapshot_commits(), 0);
  }
  // Recover at an intermediate version and at the tip; compare to a model.
  for (int64_t target : {7, 12, 17}) {
    auto store = StateStore::Open(dir_, target, opts).TakeValue();
    EXPECT_EQ(store->loaded_version(), target);
    std::map<std::string, std::string> model;
    for (int64_t v = 1; v <= target; ++v) {
      model["key" + std::to_string(v)] = "val" + std::to_string(v);
      if (v % 3 == 0) model.erase("key" + std::to_string(v - 1));
    }
    EXPECT_EQ(store->size(), static_cast<int64_t>(model.size()))
        << "at version " << target;
    for (const auto& [k, v] : model) {
      ASSERT_NE(store->Get(k), nullptr) << k;
      EXPECT_EQ(*store->Get(k), v);
    }
  }
}

TEST_F(StateStoreTest, CommitVersionsMustIncrease) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  ASSERT_TRUE(store->Commit(5).ok());
  EXPECT_FALSE(store->Commit(5).ok());
  EXPECT_FALSE(store->Commit(4).ok());
  EXPECT_TRUE(store->Commit(6).ok());
}

TEST_F(StateStoreTest, ReopenedStoreContinuesCommitting) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put("a", "1");
    ASSERT_TRUE(store->Commit(1).ok());
  }
  auto store = StateStore::Open(dir_, 1).TakeValue();
  store->Put("b", "2");
  ASSERT_TRUE(store->Commit(2).ok());
  auto reread = StateStore::Open(dir_, 2).TakeValue();
  EXPECT_EQ(*reread->Get("a"), "1");
  EXPECT_EQ(*reread->Get("b"), "2");
}

TEST_F(StateStoreTest, TruncateAfterSupportsRollback) {
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    for (int64_t v = 1; v <= 5; ++v) {
      // std::string("v") rather than "v": gcc 12's -Wrestrict false-fires
      // on operator+(const char*, string&&) under -O2 (PR 105329).
      store->Put("k", std::string("v") + std::to_string(v));
      ASSERT_TRUE(store->Commit(v).ok());
    }
  }
  ASSERT_TRUE(StateStore::TruncateAfter(dir_, 2).ok());
  auto store = StateStore::Open(dir_, 5).TakeValue();
  EXPECT_EQ(store->loaded_version(), 2);
  EXPECT_EQ(*store->Get("k"), "v2");
}

TEST_F(StateStoreTest, PurgeBeforeKeepsRecoverability) {
  StateStore::Options opts;
  opts.snapshot_interval = 4;
  {
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    for (int64_t v = 1; v <= 12; ++v) {
      store->Put(std::string("k") + std::to_string(v), "v");
      ASSERT_TRUE(store->Commit(v).ok());
    }
  }
  ASSERT_TRUE(StateStore::PurgeBefore(dir_, 10).ok());
  auto store = StateStore::Open(dir_, 12, opts).TakeValue();
  EXPECT_EQ(store->loaded_version(), 12);
  EXPECT_EQ(store->size(), 12);
}

TEST_F(StateStoreTest, BinaryValuesSurvive) {
  std::string key("\x00\x01key", 5);
  std::string value("\x00\xffval", 5);
  {
    auto store = StateStore::Open(dir_, 0).TakeValue();
    store->Put(key, value);
    ASSERT_TRUE(store->Commit(1).ok());
  }
  auto store = StateStore::Open(dir_, 1).TakeValue();
  ASSERT_NE(store->Get(key), nullptr);
  EXPECT_EQ(*store->Get(key), value);
}

TEST_F(StateStoreTest, ForEachVisitsAll) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  store->Put("a", "1");
  store->Put("b", "2");
  int count = 0;
  store->ForEach(
      [&](const std::string&, const std::string&, uint32_t) { ++count; });
  EXPECT_EQ(count, 2);
}

// A walk may remove or rewrite the key it visits: the live contents and the
// next delta's bytes are those of collecting the keys first and applying
// the same edits afterwards.
TEST_F(StateStoreTest, EditingTheVisitedKeyMatchesCollectThenApply) {
  auto key_of = [](int i) {
    std::string key = "k";
    key += std::to_string(i);
    return key;
  };
  // Keys k0, k3, ... go, k1, k4, ... are rewritten, the rest stay.
  auto edit_of = [](const std::string& key) {
    return std::stoi(key.substr(1)) % 3;
  };
  std::string deltas[2];
  Model contents[2];
  for (int in_place = 0; in_place < 2; ++in_place) {
    const std::string dir = dir_ + "/" + std::to_string(in_place);
    auto store = StateStore::Open(dir, 0).TakeValue();
    for (int i = 0; i < 40; ++i) {
      store->Put(key_of(i), std::string(i % 7, 'v'));
    }
    ASSERT_TRUE(store->Commit(1).ok());
    for (int i = 0; i < 40; i += 5) store->Remove(key_of(i));
    store->Put("k7", "changed before the walk");
    store->Put("new", "n");
    std::vector<std::string> collected;
    store->ForEach([&](const std::string& key, const std::string& value,
                       uint32_t) {
      if (key == "new" || edit_of(key) == 2) return;
      if (!in_place) {
        collected.push_back(key);
      } else if (edit_of(key) == 0) {
        store->Remove(key);
      } else {
        *store->FindOrCreate(key).value = value + "+";
      }
    });
    for (const std::string& key : collected) {
      if (edit_of(key) == 0) {
        store->Remove(key);
      } else {
        store->Put(key, *store->Get(key) + "+");
      }
    }
    ASSERT_TRUE(store->Commit(2).ok());
    deltas[in_place] = ReadFile(dir + "/2.delta").TakeValue();
    store->ForEach([&](const std::string& key, const std::string& value,
                       uint32_t) {
      contents[in_place].emplace(key, value);
    });
  }
  EXPECT_FALSE(deltas[0].empty());
  EXPECT_EQ(deltas[1], deltas[0]);
  EXPECT_EQ(contents[1], contents[0]);
  EXPECT_EQ(contents[0].size(), 40u - 8u - 11u + 1u);
}

TEST_F(StateStoreTest, FindOrCreateUpdatesInPlace) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  StateStore::Slot a = store->FindOrCreate("a");
  EXPECT_TRUE(a.created);
  EXPECT_EQ(*a.key, "a");
  EXPECT_EQ(*a.value, "");
  EXPECT_EQ(store->size(), 1);
  *a.value = "first";
  store->Put("b", "2");
  // Later writes through the slot are seen by reads, the accounting and
  // the next commit.
  a.value->append("+more");
  EXPECT_EQ(*store->Get("a"), "first+more");
  ExpectMatchesModel(*store, {{"a", "first+more"}, {"b", "2"}});
  ASSERT_TRUE(store->Commit(1).ok());
  StateStore::Slot again = store->FindOrCreate("a");
  EXPECT_FALSE(again.created);
  EXPECT_EQ(*again.value, "first+more");
  *again.value = "x";
  ASSERT_TRUE(store->Commit(2).ok());
  auto reread = StateStore::Open(dir_, 2).TakeValue();
  ExpectMatchesModel(*reread, {{"a", "x"}, {"b", "2"}});
}

TEST_F(StateStoreTest, CommitAndForgetDropTrackedChanges) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  store->Put("a", "1");
  store->Put("b", "2");
  store->Remove("b");
  store->Remove("never-existed");  // nothing to track
  EXPECT_EQ(store->tracked_changes(), 2);
  ASSERT_TRUE(store->Commit(1).ok());
  EXPECT_EQ(store->tracked_changes(), 0);
  ExpectMatchesModel(*store, {{"a", "1"}});

  // Non-durable epoch end: the marks and the tombstone go, the contents
  // stay.
  store->Put("c", "3");
  store->Remove("a");
  EXPECT_EQ(store->tracked_changes(), 2);
  store->ForgetChanges();
  EXPECT_EQ(store->tracked_changes(), 0);
  ExpectMatchesModel(*store, {{"c", "3"}});
  store->Put("a", "again");
  ExpectMatchesModel(*store, {{"a", "again"}, {"c", "3"}});
}

TEST_F(StateStoreTest, FailedSnapshotWriteIsRetriedAsSnapshot) {
  // A snapshot whose write fails must not count: the retry is a snapshot
  // again, so the next full image is not postponed by a whole interval.
  // Both the snapshot seam and a failed file write are covered.
  for (const char* failpoint : {"state.snapshot.before_write", "fs.write"}) {
    SCOPED_TRACE(failpoint);
    RemoveDirRecursive(dir_).ok();
    StateStore::Options opts;
    opts.snapshot_interval = 3;
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    for (int64_t v = 1; v <= 3; ++v) {  // snapshot, delta, delta
      store->Put(std::string("k") + std::to_string(v), "v");
      ASSERT_TRUE(store->Commit(v).ok());
    }
    ASSERT_EQ(store->snapshot_commits(), 1);
    ASSERT_EQ(store->delta_commits(), 2);
    store->Put("k4", "v");
    ASSERT_TRUE(Failpoints::Instance().Arm(failpoint, FailpointSpec()).ok());
    EXPECT_FALSE(store->Commit(4).ok());  // version 4 is due a snapshot
    Failpoints::Instance().DisarmAll();
    EXPECT_EQ(store->snapshot_commits(), 1);
    EXPECT_FALSE(FileExists(dir_ + "/4.snapshot"));
    ASSERT_TRUE(store->Commit(5).ok());
    EXPECT_EQ(store->snapshot_commits(), 2);
    EXPECT_EQ(store->delta_commits(), 2);
    EXPECT_TRUE(FileExists(dir_ + "/5.snapshot"));
    auto reread = StateStore::Open(dir_, 5, opts).TakeValue();
    ExpectMatchesModel(
        *reread, {{"k1", "v"}, {"k2", "v"}, {"k3", "v"}, {"k4", "v"}});
  }
}

// The per-shard chaos seams live on the bare store: `state.shard.append`
// fails an Append before it changes anything, and `state.shard.checkpoint`
// fails a Commit before it writes, keeping the changes for the retry.
TEST_F(StateStoreTest, ShardAppendSeamChangesNothing) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  ASSERT_TRUE(store->Append("k", "head").ok());
  ASSERT_TRUE(store->Commit(1).ok());
  ASSERT_TRUE(store->Append("k", "+1").ok());
  ASSERT_EQ(store->tracked_changes(), 1);
  FailpointSpec every;
  every.sticky = true;
  ASSERT_TRUE(Failpoints::Instance().Arm("state.shard.append", every).ok());
  for (const char* key : {"k", "new"}) {
    const Status failed = store->Append(key, "+2");
    EXPECT_FALSE(failed.ok()) << key;
    EXPECT_TRUE(Failpoints::IsInjected(failed)) << failed.ToString();
  }
  Failpoints::Instance().DisarmAll();
  EXPECT_EQ(*store->Get("k"), "head+1");
  EXPECT_EQ(store->Get("new"), nullptr);
  EXPECT_EQ(store->tracked_changes(), 1);
  ASSERT_TRUE(store->Commit(2).ok());
  ExpectMatchesModel(*StateStore::Open(dir_, 2).TakeValue(),
                     {{"k", "head+1"}});
}

TEST_F(StateStoreTest, ShardCheckpointSeamWritesNothingAndRetries) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  store->Put("a", "1");
  ASSERT_TRUE(store->Commit(1).ok());
  store->Put("b", "2");
  ASSERT_TRUE(
      Failpoints::Instance().Arm("state.shard.checkpoint", FailpointSpec())
          .ok());
  const Status failed = store->Commit(2);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(Failpoints::IsInjected(failed)) << failed.ToString();
  Failpoints::Instance().DisarmAll();
  EXPECT_FALSE(FileExists(dir_ + "/2.delta"));
  EXPECT_FALSE(FileExists(dir_ + "/2.snapshot"));
  EXPECT_EQ(store->loaded_version(), 1);
  EXPECT_EQ(store->tracked_changes(), 1);
  ASSERT_TRUE(store->Commit(2).ok());
  EXPECT_TRUE(FileExists(dir_ + "/2.delta"));
  ExpectMatchesModel(*StateStore::Open(dir_, 2).TakeValue(),
                     {{"a", "1"}, {"b", "2"}});
}

// Property test: random Put / Append / Remove / FindOrCreate sequences with
// commits at random epochs. After every op the live view (size, ApproxBytes,
// ForEach) matches an in-memory model, and every committed version recovers
// to the model as of that commit.
class StateStoreFuzzTest : public StateStoreTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(StateStoreFuzzTest, RandomOpsMatchModel) {
  Random rng(static_cast<uint64_t>(GetParam()));
  StateStore::Options opts;
  opts.snapshot_interval = 1 + static_cast<int>(rng.Uniform(6));
  std::map<int64_t, Model> committed_models;
  {
    auto store = StateStore::Open(dir_, 0, opts).TakeValue();
    Model model;
    // Slots handed out since the last commit, by key. Values are later
    // rewritten through them, as the aggregate fold does at epoch end.
    std::map<std::string, StateStore::Slot> held;
    int64_t version = 0;
    for (int i = 0; i < 600; ++i) {
      std::string key = std::string("k") + std::to_string(rng.Uniform(30));
      // Variable lengths so rewrites change the byte accounting.
      std::string value = std::string("v") +
                          std::string(rng.Uniform(12), 'x') +
                          std::to_string(rng.Next() % 1000);
      const uint64_t op = rng.Uniform(8);
      SCOPED_TRACE("op " + std::to_string(i) + " kind " + std::to_string(op) +
                   " key " + key);
      switch (op) {
        case 0:
        case 1:
          store->Put(key, value);
          model[key] = value;
          break;
        case 2:
          ASSERT_TRUE(store->Append(key, value).ok());
          model[key] += value;
          break;
        case 3:
          store->Remove(key);
          model.erase(key);
          held.erase(key);
          break;
        case 4: {
          StateStore::Slot slot = store->FindOrCreate(key);
          auto it = model.find(key);
          EXPECT_EQ(slot.created, it == model.end());
          EXPECT_EQ(*slot.key, key);
          EXPECT_EQ(*slot.value, it == model.end() ? "" : it->second);
          model[key] = *slot.value;
          held[key] = slot;
          break;
        }
        case 5: {
          if (held.empty()) break;
          auto it = held.begin();
          std::advance(it, static_cast<long>(rng.Uniform(held.size())));
          if (rng.OneIn(0.5)) {
            *it->second.value = value;
          } else {
            it->second.value->append(value);
          }
          model[it->first] = *it->second.value;
          break;
        }
        case 6:
          // Put -> remove -> put of one key between two commits.
          store->Put(key, value);
          store->Remove(key);
          store->Put(key, value + "!");
          model[key] = value + "!";
          held.erase(key);
          break;
        case 7:
          store->Remove(std::string("absent") + std::to_string(i));
          break;
      }
      ExpectMatchesModel(*store, model);
      if (rng.OneIn(0.12)) {
        version += 1 + static_cast<int64_t>(rng.Uniform(3));
        ASSERT_TRUE(store->Commit(version).ok());
        EXPECT_EQ(store->tracked_changes(), 0);
        held.clear();
        committed_models[version] = model;
        ExpectMatchesModel(*store, model);
      }
    }
  }
  ASSERT_FALSE(committed_models.empty());
  for (const auto& [version, model] : committed_models) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto store = StateStore::Open(dir_, version, opts).TakeValue();
    ASSERT_EQ(store->loaded_version(), version);
    ExpectMatchesModel(*store, model);
    for (const auto& [k, v] : model) {
      ASSERT_NE(store->Get(k), nullptr);
      EXPECT_EQ(*store->Get(k), v);
    }
  }
}


// The table at scale: a 6000-key space, so the index grows many times and
// removals land inside long probe clusters. Hashed and unhashed verbs are
// mixed, slots are held across growth within an epoch and written through
// later, and epochs end with Commit or (ephemeral half of the seeds)
// ForgetChanges. The live view is checked in full every few hundred ops and
// at every epoch end, and each committed version recovers to its model.
TEST_P(StateStoreFuzzTest, LargeKeySpaceMatchesModel) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919);
  const bool durable = GetParam() % 2 == 1;
  StateStore::Options opts;
  opts.snapshot_interval = 1 + static_cast<int>(rng.Uniform(5));
  std::map<int64_t, Model> committed_models;
  auto store = StateStore::Open(dir_, 0, opts).TakeValue();
  Model model;
  std::map<std::string, StateStore::Slot> held;
  int64_t version = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(6000));
    const uint64_t hash = StateStore::HashKey(key);
    const std::string value =
        std::string(rng.Uniform(20), 'v') + std::to_string(i);
    const uint64_t op = rng.Uniform(10);
    switch (op) {
      case 0:
      case 1:
        store->Put(key, value);
        model[key] = value;
        break;
      case 2: {
        StateStore::Slot slot = store->FindOrCreate(key, hash);
        auto it = model.find(key);
        ASSERT_EQ(slot.created, it == model.end()) << key;
        ASSERT_EQ(*slot.key, key);
        *slot.value = value;
        model[key] = value;
        held[key] = slot;
        break;
      }
      case 3: {
        const bool live = model.count(key) > 0;
        const int64_t tracked = store->tracked_changes();
        ASSERT_EQ(store->InsertIfAbsent(key, hash), !live) << key;
        if (live) {
          // A found key is left as it was, clean included.
          ASSERT_EQ(store->tracked_changes(), tracked);
        } else {
          model[key] = "";
        }
        break;
      }
      case 4:
      case 5:
        store->Remove(key);
        model.erase(key);
        held.erase(key);
        break;
      case 6: {
        if (held.empty()) break;
        auto it = held.begin();
        std::advance(it, static_cast<long>(rng.Uniform(held.size())));
        it->second.value->append(value);
        model[it->first] = *it->second.value;
        break;
      }
      case 7:
        ASSERT_TRUE(store->Append(key, value).ok());
        model[key] += value;
        break;
      case 8: {
        auto it = model.find(key);
        const std::string* got = store->Get(key);
        ASSERT_EQ(got != nullptr, it != model.end()) << key;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << key;
        }
        break;
      }
      case 9:
        store->Remove("absent" + std::to_string(i));
        break;
    }
    ASSERT_EQ(store->size(), static_cast<int64_t>(model.size()));
    if (i % 997 == 0) ExpectMatchesModel(*store, model);
    // Long epochs early (the index grows under held slots), shorter later.
    if (rng.OneIn(i < 10000 ? 0.0005 : 0.004)) {
      if (durable) {
        version += 1 + static_cast<int64_t>(rng.Uniform(2));
        ASSERT_TRUE(store->Commit(version).ok());
        committed_models[version] = model;
      } else {
        store->ForgetChanges();
      }
      EXPECT_EQ(store->tracked_changes(), 0);
      held.clear();
      ExpectMatchesModel(*store, model);
    }
  }
  ExpectMatchesModel(*store, model);
  EXPECT_GT(model.size(), 1000u);
  if (!durable) return;
  ASSERT_FALSE(committed_models.empty());
  for (const auto& [v, m] : committed_models) {
    SCOPED_TRACE("version " + std::to_string(v));
    auto reread = StateStore::Open(dir_, v, opts).TakeValue();
    ASSERT_EQ(reread->loaded_version(), v);
    ExpectMatchesModel(*reread, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateStoreFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// Checked-in checkpoint files (tests/golden/state_store/): five versions
// written by an earlier StateStore — snapshot, delta, delta (with
// tombstones), snapshot, delta — by the ops of FixtureEpoch. The current
// store must restore every version exactly and, replaying the same ops,
// write byte-identical deltas and snapshots holding the same records (a
// snapshot's record order is the table's iteration order, which may
// change).
constexpr int kFixtureVersions = 5;
constexpr int kFixtureSnapshotInterval = 3;

std::string FixtureDir() {
  return std::string(SSTREAMING_SOURCE_DIR) + "/tests/golden/state_store";
}

/// Applies fixture epoch `v` (1-based) to `store` and `model`.
void FixtureEpoch(int v, StateStore* store, Model* model) {
  auto put = [&](const std::string& k, const std::string& val) {
    store->Put(k, val);
    (*model)[k] = val;
  };
  auto remove = [&](const std::string& k) {
    store->Remove(k);
    model->erase(k);
  };
  auto key = [](int i) { return std::string("key") + std::to_string(i); };
  switch (v) {
    case 1:
      for (int i = 0; i < 24; ++i) put(key(i), "v1." + std::to_string(i));
      put(std::string("bin\0key", 7), std::string("\x01\x00\xff", 3));
      break;
    case 2:
      for (int i = 0; i < 24; i += 3) put(key(i), "v2." + std::to_string(i));
      for (int i = 1; i < 24; i += 5) remove(key(i));
      ASSERT_TRUE(store->Append(key(2), "+tail").ok());
      (*model)[key(2)] += "+tail";
      remove("never-stored");  // records nothing
      break;
    case 3: {
      remove(key(0));
      put(key(1), "revived");  // removed in version 2
      StateStore::Slot slot = store->FindOrCreate(key(30));
      *slot.value = "slot-written";
      (*model)[key(30)] = "slot-written";
      put(key(31), "x");  // put -> remove -> put between two commits
      remove(key(31));
      put(key(31), "y");
      put(key(32), "short-lived");
      remove(key(32));
      break;
    }
    case 4:
      for (int i = 40; i < 48; ++i) put(key(i), std::string(i - 39, 'z'));
      remove(std::string("bin\0key", 7));
      break;
    case 5:
      remove(key(40));
      remove(key(41));
      put(key(3), "");
      break;
  }
}

/// Parses a state file into its (op, key, value) records.
std::vector<std::tuple<char, std::string, std::string>> ParseStateFile(
    const std::string& data) {
  std::vector<std::tuple<char, std::string, std::string>> records;
  size_t pos = 0;
  auto fixed64 = [&]() {
    uint64_t v = 0;
    EXPECT_LE(pos + 8, data.size());
    if (pos + 8 <= data.size()) std::memcpy(&v, data.data() + pos, 8);
    pos += 8;
    return static_cast<size_t>(v);
  };
  while (pos < data.size()) {
    const char op = data[pos++];
    const size_t klen = fixed64();
    std::string key = data.substr(pos, klen);
    pos += klen;
    std::string value;
    if (op == 1) {
      const size_t vlen = fixed64();
      value = data.substr(pos, vlen);
      pos += vlen;
    }
    records.emplace_back(op, std::move(key), std::move(value));
  }
  return records;
}

TEST_F(StateStoreTest, RestoresCheckedInFixture) {
  std::filesystem::copy(FixtureDir(), dir_,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing);
  StateStore::Options opts;
  opts.snapshot_interval = kFixtureSnapshotInterval;
  auto scratch = StateStore::Open(dir_ + "/model", 0, opts).TakeValue();
  Model model;
  for (int v = 1; v <= kFixtureVersions; ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    FixtureEpoch(v, scratch.get(), &model);
    auto store = StateStore::Open(dir_, v, opts).TakeValue();
    ASSERT_EQ(store->loaded_version(), v);
    ExpectMatchesModel(*store, model);
    for (const auto& [k, val] : model) {
      const std::string* got = store->Get(k);
      ASSERT_NE(got, nullptr) << k;
      EXPECT_EQ(*got, val);
    }
  }
}

TEST_F(StateStoreTest, RewritesCheckedInFixture) {
  StateStore::Options opts;
  opts.snapshot_interval = kFixtureSnapshotInterval;
  auto store = StateStore::Open(dir_, 0, opts).TakeValue();
  Model model;
  for (int v = 1; v <= kFixtureVersions; ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    FixtureEpoch(v, store.get(), &model);
    ASSERT_TRUE(store->Commit(v).ok());
    const bool snapshot = v == 1 || v == 4;
    const std::string name =
        std::to_string(v) + (snapshot ? ".snapshot" : ".delta");
    ASSERT_TRUE(FileExists(dir_ + "/" + name));
    const std::string written = ReadFile(dir_ + "/" + name).TakeValue();
    const std::string golden =
        ReadFile(FixtureDir() + "/" + name).TakeValue();
    if (snapshot) {
      auto a = ParseStateFile(written);
      auto b = ParseStateFile(golden);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b);
    } else {
      EXPECT_EQ(written, golden);
    }
  }
}

// The table and routing hash is 64-bit FNV-1a: pinned on the published
// test vectors and on an encoded state key, so shard routing and table
// layout stay fixed across platforms and releases.
TEST(StateStoreHashTest, HashKeyIsPinnedFnv1a) {
  EXPECT_EQ(StateStore::HashKey(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(StateStore::HashKey("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(StateStore::HashKey("foobar"), 0x85944171F73967E8ull);
  std::string key;  // arity 1, string tag, 8-byte length 2, "ca"
  EncodeRow({Value::Str("ca")}, &key);
  ASSERT_EQ(key, std::string("\x01\x04\x02\0\0\0\0\0\0\0" "ca", 12));
  EXPECT_EQ(StateStore::HashKey(key), 0xCDF2606044931EEEull);
  EXPECT_EQ(StateStore::HashKey(key), HashBytes(key.data(), key.size(), 0));
}

TEST_F(StateStoreTest, MarkIsCallerOwnedAndZeroOnInsert) {
  auto store = StateStore::Open(dir_, 0).TakeValue();
  StateStore::Slot slot = store->FindOrCreate("a");
  ASSERT_TRUE(slot.created);
  EXPECT_EQ(*slot.mark, 0u);
  *slot.mark = 7;
  EXPECT_EQ(*store->FindOrCreate("a").mark, 7u);
  ASSERT_TRUE(store->Commit(1).ok());
  EXPECT_EQ(*store->FindOrCreate("a").mark, 7u);  // commits leave it
  store->Remove("a");
  ASSERT_TRUE(store->Commit(2).ok());  // erases the entry
  slot = store->FindOrCreate("a");
  EXPECT_TRUE(slot.created);
  EXPECT_EQ(*slot.mark, 0u);
}

// KeyIndex against std::unordered_map, with hashes the test chooses: 256
// tags shared by up to 3000 keys force tag collisions (the key compare
// decides), and the pool's first tags have their home in the last slots at
// every capacity, so their clusters wrap around to slot 0. Positions index
// a vector of keys and are never reused. Growth must happen exactly when
// an insert would pass the 3/4 load factor. The second half draws from a
// tenth of the keys, which are erased and re-inserted many times among
// the first half's survivors.
class KeyIndexModelTest : public ::testing::TestWithParam<int> {};

TEST_P(KeyIndexModelTest, MatchesUnorderedMap) {
  Random rng(static_cast<uint64_t>(GetParam()));
  // Tags t with t * 0x9E3779B9 near 2^32 - 1 have their home at the end.
  uint32_t inverse = 0x9E3779B9u;  // Newton: inverse of the odd multiplier
  for (int i = 0; i < 5; ++i) inverse *= 2 - 0x9E3779B9u * inverse;
  std::vector<uint32_t> tags;
  for (uint32_t j = 0; j < 4; ++j) tags.push_back((0xFFFFFFFFu - j) * inverse);
  while (tags.size() < 256) tags.push_back(static_cast<uint32_t>(rng.Next()));

  KeyIndex index;
  std::vector<std::string> keys;  // position -> key
  std::unordered_map<std::string, uint32_t> model;
  auto is_key = [&](const std::string& key) {
    return [&keys, &key](uint32_t pos) { return keys[pos] == key; };
  };
  auto hash_of = [&](const std::string& key) {
    // A stable per-key choice from the pool, so a key keeps its hash.
    const uint64_t h = StateStore::HashKey(key);
    return (static_cast<uint64_t>(tags[h % tags.size()]) << 32) |
           static_cast<uint32_t>(h);
  };
  auto expect_model = [&]() {
    ASSERT_EQ(index.size(), model.size());
    for (const auto& [key, pos] : model) {
      size_t slot;
      ASSERT_EQ(index.Find(hash_of(key), is_key(key), &slot), pos) << key;
    }
  };
  size_t grew = 0;
  bool wrapped = false;
  for (int i = 0; i < 20000; ++i) {
    const std::string key =
        "k" + std::to_string(rng.Uniform(i < 10000 ? 3000 : 600));
    const uint64_t hash = hash_of(key);
    auto it = model.find(key);
    size_t slot;
    if (rng.Uniform(3) != 0) {  // find, inserting when absent
      const size_t cap = index.capacity();
      const bool must_grow = (index.size() + 1) * 4 > cap * 3;
      index.Reserve();
      ASSERT_EQ(index.capacity() != cap, must_grow) << "op " << i;
      grew += must_grow ? 1 : 0;
      const uint32_t pos = index.Find(hash, is_key(key), &slot);
      if (it != model.end()) {
        ASSERT_EQ(pos, it->second) << key;
        if (slot < index.Home(hash)) wrapped = true;
        continue;
      }
      ASSERT_EQ(pos, KeyIndex::kAbsent) << key;
      const uint32_t next = static_cast<uint32_t>(keys.size());
      index.Insert(slot, hash, next);
      keys.push_back(key);
      model.emplace(key, next);
    } else if (it != model.end()) {  // erase
      ASSERT_EQ(index.Find(hash, is_key(key), &slot), it->second) << key;
      index.Erase(slot);
      model.erase(it);
      ASSERT_EQ(index.Find(hash, is_key(key), &slot), KeyIndex::kAbsent);
    }
    if (i % 500 == 0) expect_model();
  }
  expect_model();
  EXPECT_GE(grew, 9u);  // 0 -> 16 -> ... -> at least 4096 slots
  EXPECT_TRUE(wrapped) << "no probe cluster wrapped around";
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyIndexModelTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sstreaming
