// PersistentFeatureStore contract tests: roundtrip persistence across
// reopen, SIGKILL crash recovery (every acked-committed record survives, a
// torn tail never does more damage than its own chain), versioned
// invalidation, corrupt-header cold start, and the reader-role degradations
// (read-only flag, live-writer contention, missing file). The crash test
// forks a real writer process and kills it mid-append — the commit
// protocol's whole point — with commit acks flowing over a pipe so the
// parent knows exactly which records must be recoverable.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "featureeng/persistent_feature_store.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace zombie {
namespace {

constexpr uint64_t kFpA = 0x1111222233334444ull;
constexpr uint64_t kFpB = 0xaaaabbbbccccddddull;

std::string StorePath(const std::string& name) {
  std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return path;
}

/// Deterministic entry for doc `i`: variable nnz so records have different
/// sizes (exercises arena packing and the odd-nnz alignment pad).
FeatureCache::Entry MakeEntry(uint32_t i) {
  FeatureCache::Entry e;
  uint32_t nnz = 3 + i % 8;
  for (uint32_t k = 0; k < nnz; ++k) {
    e.features.PushBack(i + k * 7, 0.25 * static_cast<double>(i) +
                                       static_cast<double>(k));
  }
  e.label = static_cast<int32_t>(i % 2);
  e.cost_micros = 1000 + static_cast<int64_t>(i);
  return e;
}

/// gtest-free equality for forked children (plain _exit codes).
bool EntryEquals(const FeatureCache::Entry& got,
                 const FeatureCache::Entry& want) {
  return got.features == want.features && got.label == want.label &&
         got.cost_micros == want.cost_micros;
}

void ExpectEntryEq(const FeatureCache::Entry& got,
                   const FeatureCache::Entry& want, uint32_t i) {
  EXPECT_EQ(got.features, want.features) << "doc " << i;
  EXPECT_EQ(got.label, want.label) << "doc " << i;
  EXPECT_EQ(got.cost_micros, want.cost_micros) << "doc " << i;
}

PersistentFeatureStoreOptions SmallStore() {
  PersistentFeatureStoreOptions opts;
  opts.num_buckets = 64;  // force real chains and a small file
  return opts;
}

TEST(PersistentFeatureStoreTest, RoundtripAcrossReopen) {
  std::string path = StorePath("roundtrip.zfs");
  constexpr uint32_t kDocs = 200;
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(store.value()->writable());
    for (uint32_t i = 0; i < kDocs; ++i) {
      EXPECT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
    }
    // Duplicate keys are rejected without writing.
    EXPECT_FALSE(store.value()->Append(kFpA, 0, MakeEntry(0)));
    PersistentFeatureStoreStats s = store.value()->Stats();
    EXPECT_EQ(s.appends, kDocs);
    EXPECT_EQ(s.entries, kDocs);
  }
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PersistentFeatureStoreStats s = store.value()->Stats();
  EXPECT_EQ(s.recovered, kDocs);
  EXPECT_EQ(s.entries, kDocs);
  EXPECT_EQ(s.corrupt_skipped, 0u);
  for (uint32_t i = 0; i < kDocs; ++i) {
    auto hit = store.value()->Lookup(kFpA, i);
    ASSERT_TRUE(hit.has_value()) << "doc " << i;
    ExpectEntryEq(*hit, MakeEntry(i), i);
  }
  EXPECT_FALSE(store.value()->Lookup(kFpA, kDocs).has_value());
  EXPECT_FALSE(store.value()->Lookup(kFpB, 0).has_value());
}

TEST(PersistentFeatureStoreTest, GenerationBumpsPerWriterOpen) {
  std::string path = StorePath("generation.zfs");
  uint64_t first = 0;
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    first = store.value()->generation();
    EXPECT_GE(first, 1u);
  }
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->generation(), first + 1);
}

TEST(PersistentFeatureStoreTest, ReadOnlyOptionForcesReaderRole) {
  std::string path = StorePath("read_only.zfs");
  {
    auto writer = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Append(kFpA, 7, MakeEntry(7)));
  }
  PersistentFeatureStoreOptions opts = SmallStore();
  opts.read_only = true;
  auto reader = PersistentFeatureStore::Open(path, opts);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE(reader.value()->writable());
  EXPECT_FALSE(reader.value()->Append(kFpA, 8, MakeEntry(8)));
  auto hit = reader.value()->Lookup(kFpA, 7);
  ASSERT_TRUE(hit.has_value());
  ExpectEntryEq(*hit, MakeEntry(7), 7);
}

TEST(PersistentFeatureStoreTest, SecondOpenDegradesToReaderWhileWriterLives) {
  std::string path = StorePath("two_roles.zfs");
  auto writer = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->writable());
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.value()->Append(kFpA, i, MakeEntry(i)));
  }
  // flock is per open file description, so this second open contends with
  // the live writer exactly like another process would: the exclusive and
  // shared locks are both refused and the open degrades to lock-free reads.
  auto reader = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE(reader.value()->writable());
  EXPECT_FALSE(reader.value()->Append(kFpA, 99, MakeEntry(99)));
  for (uint32_t i = 0; i < 50; ++i) {
    auto hit = reader.value()->Lookup(kFpA, i);
    ASSERT_TRUE(hit.has_value()) << "doc " << i;
    ExpectEntryEq(*hit, MakeEntry(i), i);
  }
}

TEST(PersistentFeatureStoreTest, MissingFileReaderRunsDetached) {
  std::string path = StorePath("missing.zfs");
  PersistentFeatureStoreOptions opts = SmallStore();
  opts.read_only = true;
  auto reader = PersistentFeatureStore::Open(path, opts);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_FALSE(reader.value()->writable());
  EXPECT_FALSE(reader.value()->Lookup(kFpA, 0).has_value());
  EXPECT_FALSE(reader.value()->Append(kFpA, 0, MakeEntry(0)));
  EXPECT_EQ(reader.value()->Stats().misses, 1u);
}

TEST(PersistentFeatureStoreTest, WriterInMissingDirectoryReportsIOError) {
  // Only lock contention may degrade a writer to a reader; a lock file that
  // cannot be created is an error, not "another writer is active".
  std::string path = testing::TempDir() + "/no_such_dir/store.zfs";
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIOError)
      << store.status().ToString();
}

TEST(PersistentFeatureStoreTest, FingerprintInvalidationDropsOnlyStale) {
  std::string path = StorePath("invalidate.zfs");
  constexpr uint32_t kDocs = 60;
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
      ASSERT_TRUE(store.value()->Append(kFpB, i, MakeEntry(i + 1000)));
    }
  }
  {
    PersistentFeatureStoreOptions opts = SmallStore();
    opts.retain_fingerprints = {kFpA};
    auto store = PersistentFeatureStore::Open(path, opts);
    ASSERT_TRUE(store.ok());
    PersistentFeatureStoreStats s = store.value()->Stats();
    EXPECT_EQ(s.invalidated, kDocs);
    EXPECT_EQ(s.recovered, kDocs);
    EXPECT_EQ(s.entries, kDocs);
    for (uint32_t i = 0; i < kDocs; ++i) {
      EXPECT_TRUE(store.value()->Lookup(kFpA, i).has_value()) << i;
      EXPECT_FALSE(store.value()->Lookup(kFpB, i).has_value()) << i;
    }
  }
  // The unlink is persistent: a later retain-everything open still sees
  // only the retained fingerprint's records.
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store.value()->Stats().recovered, kDocs);
  EXPECT_FALSE(store.value()->Lookup(kFpB, 0).has_value());
  EXPECT_TRUE(store.value()->Lookup(kFpA, 0).has_value());
}

TEST(PersistentFeatureStoreTest, CorruptRecordTruncatesOnlyItsChain) {
  std::string path = StorePath("torn.zfs");
  constexpr uint32_t kDocs = 40;
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
    }
  }
  // Scribble over one byte inside the first record's payload (the arena
  // begins right after the 64-byte header + 64 * 8-byte bucket index).
  // CRC validation must reject the record; because it was appended first
  // it is the *tail* of its chain, so every other record survives.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long arena = 64 + 64 * 8;
    ASSERT_EQ(std::fseek(f, arena + 16, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, arena + 16, SEEK_SET), 0);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok());
  PersistentFeatureStoreStats s = store.value()->Stats();
  EXPECT_EQ(s.corrupt_skipped, 1u);
  EXPECT_EQ(s.recovered, kDocs - 1);
  uint32_t found = 0;
  for (uint32_t i = 0; i < kDocs; ++i) {
    if (auto hit = store.value()->Lookup(kFpA, i)) {
      ExpectEntryEq(*hit, MakeEntry(i), i);
      ++found;
    }
  }
  EXPECT_EQ(found, kDocs - 1);
}

TEST(PersistentFeatureStoreTest, CorruptHeaderColdStartsWriter) {
  std::string path = StorePath("bad_header.zfs");
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Append(kFpA, 1, MakeEntry(1)));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "NOTASTORE";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  PersistentFeatureStoreStats s = store.value()->Stats();
  EXPECT_EQ(s.corrupt_skipped, 1u);
  EXPECT_EQ(s.recovered, 0u);
  EXPECT_EQ(s.entries, 0u);
  // The store is fully usable after the in-place cold start.
  EXPECT_FALSE(store.value()->Lookup(kFpA, 1).has_value());
  EXPECT_TRUE(store.value()->Append(kFpA, 2, MakeEntry(2)));
  auto hit = store.value()->Lookup(kFpA, 2);
  ASSERT_TRUE(hit.has_value());
  ExpectEntryEq(*hit, MakeEntry(2), 2);
}

TEST(PersistentFeatureStoreTest, CorruptHeaderDetachesReader) {
  std::string path = StorePath("bad_header_reader.zfs");
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value()->Append(kFpA, 1, MakeEntry(1)));
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "NOTASTORE";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  PersistentFeatureStoreOptions opts = SmallStore();
  opts.read_only = true;
  auto reader = PersistentFeatureStore::Open(path, opts);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->Stats().corrupt_skipped, 1u);
  EXPECT_FALSE(reader.value()->Lookup(kFpA, 1).has_value());
}

TEST(PersistentFeatureStoreTest, ExportMetricsPublishesGauges) {
  std::string path = StorePath("metrics.zfs");
  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value()->Append(kFpA, 1, MakeEntry(1)));
  EXPECT_TRUE(store.value()->Lookup(kFpA, 1).has_value());
  EXPECT_FALSE(store.value()->Lookup(kFpA, 2).has_value());
  MetricsRegistry metrics;
  store.value()->ExportMetrics(&metrics);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("store.hits")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("store.misses")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("store.appends")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("store.entries")->value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("store.hit_rate")->value(), 0.5);
  // Repeated export is snapshot-stable (gauge, not counter).
  store.value()->ExportMetrics(&metrics);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("store.hits")->value(), 1.0);
}

// --- SIGKILL crash recovery -----------------------------------------------

// The child appends records as fast as it can, acking each *committed*
// append (Append returned true) through a pipe. The parent kills it with
// SIGKILL after a batch of acks — at a completely arbitrary point in the
// child's append/commit sequence — then reopens the store and checks the
// recovery invariant: acked ⊆ recovered ⊆ attempted, with every acked
// record's payload intact.
TEST(PersistentFeatureStoreCrashTest, RecoversAllAckedRecordsAfterSigkill) {
  std::string path = StorePath("crash.zfs");
  constexpr uint32_t kMaxDocs = 200000;

  int ack_pipe[2];
  ASSERT_EQ(pipe(ack_pipe), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: plain _exit codes, no gtest machinery. The writer lock dies
    // with the process, so the parent's reopen below gets writer role.
    ::close(ack_pipe[0]);
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    if (!store.ok()) _exit(2);
    for (uint32_t i = 0; i < kMaxDocs; ++i) {
      if (!store.value()->Append(kFpA, i, MakeEntry(i))) _exit(3);
      if (::write(ack_pipe[1], &i, sizeof(i)) !=
          static_cast<ssize_t>(sizeof(i))) {
        _exit(4);
      }
    }
    _exit(0);
  }
  ::close(ack_pipe[1]);

  // Collect acks until the child has committed a healthy batch, then kill
  // it mid-stream.
  uint32_t last_acked = 0;
  uint32_t acked_count = 0;
  while (acked_count < 500) {
    uint32_t id = 0;
    ssize_t n = ::read(ack_pipe[0], &id, sizeof(id));
    ASSERT_EQ(n, static_cast<ssize_t>(sizeof(id)))
        << "child exited early (ack pipe closed)";
    last_acked = id;
    ++acked_count;
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child was not killed by SIGKILL";
  // Drain acks the child wrote between our last read and the kill: they
  // are committed records too and must be recovered.
  uint32_t id = 0;
  while (::read(ack_pipe[0], &id, sizeof(id)) ==
         static_cast<ssize_t>(sizeof(id))) {
    last_acked = id;
  }
  ::close(ack_pipe[0]);

  auto store = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store.value()->writable())
      << "SIGKILL must release the dead writer's lock";
  PersistentFeatureStoreStats s = store.value()->Stats();
  // Everything acked was committed before the kill and must be intact.
  for (uint32_t i = 0; i <= last_acked; ++i) {
    auto hit = store.value()->Lookup(kFpA, i);
    ASSERT_TRUE(hit.has_value()) << "acked record " << i << " lost (of "
                                 << last_acked << ")";
    ExpectEntryEq(*hit, MakeEntry(i), i);
  }
  // Recovery may additionally see the record whose commit flip landed but
  // whose ack never did — at most one per bucket chain, and in practice
  // at most one total (the append in flight at kill time).
  EXPECT_GE(s.recovered, static_cast<uint64_t>(last_acked) + 1);
  EXPECT_LE(s.recovered, static_cast<uint64_t>(kMaxDocs));
  // A torn tail never aborts the open; it is skipped and counted.
  EXPECT_EQ(s.corrupt_skipped, 0u)
      << "commit protocol must never publish a torn record";
}

// --- GC (--store-gc) vs concurrent readers --------------------------------

TEST(PersistentFeatureStoreTest, GcDefersWhileReaderHoldsSharedLock) {
  std::string path = StorePath("gc_deferred.zfs");
  constexpr uint32_t kDocs = 60;
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
      ASSERT_TRUE(store.value()->Append(kFpB, i, MakeEntry(i + 1000)));
    }
  }
  PersistentFeatureStoreOptions reader_opts = SmallStore();
  reader_opts.read_only = true;
  auto reader = PersistentFeatureStore::Open(path, reader_opts);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  // A --store-gc open (retain_fingerprints set) while the reader holds the
  // shared lock cannot get the exclusive lock: it degrades to reader role
  // and the invalidation pass — writer-only by contract — does not run.
  // GC defers until the readers drain rather than mutating under them.
  PersistentFeatureStoreOptions gc_opts = SmallStore();
  gc_opts.retain_fingerprints = {kFpA};
  {
    auto gc = PersistentFeatureStore::Open(path, gc_opts);
    ASSERT_TRUE(gc.ok()) << gc.status().ToString();
    EXPECT_FALSE(gc.value()->writable());
    EXPECT_EQ(gc.value()->Stats().invalidated, 0u);
    EXPECT_TRUE(gc.value()->Lookup(kFpB, 0).has_value());
  }
  // The live reader's view is untouched.
  for (uint32_t i = 0; i < kDocs; ++i) {
    ASSERT_TRUE(reader.value()->Lookup(kFpA, i).has_value()) << i;
    ASSERT_TRUE(reader.value()->Lookup(kFpB, i).has_value()) << i;
  }
  reader.value().reset();

  // With the shared lock released the same GC open wins writer role and
  // the deferred invalidation finally lands.
  auto gc = PersistentFeatureStore::Open(path, gc_opts);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  EXPECT_TRUE(gc.value()->writable());
  EXPECT_EQ(gc.value()->Stats().invalidated, kDocs);
  EXPECT_TRUE(gc.value()->Lookup(kFpA, 0).has_value());
  EXPECT_FALSE(gc.value()->Lookup(kFpB, 0).has_value());
}

// A reader that opened while some writer was alive holds no lock at all
// (the SecondOpenDegradesToReaderWhileWriterLives path), so a later
// --store-gc writer CAN unlink chains underneath its live mapping. The
// contract the child checks from a real separate process: retained
// fingerprints keep serving intact payloads all through the GC, dropped
// fingerprints either serve an intact pre-GC record or miss (never tear),
// and a clean reopen converges to the post-GC view.
TEST(PersistentFeatureStoreGcTest, GcUnderLockFreeReaderProcess) {
  std::string path = StorePath("gc_live_reader.zfs");
  constexpr uint32_t kDocs = 60;
  {
    auto store = PersistentFeatureStore::Open(path, SmallStore());
    ASSERT_TRUE(store.ok());
    for (uint32_t i = 0; i < kDocs; ++i) {
      ASSERT_TRUE(store.value()->Append(kFpA, i, MakeEntry(i)));
      ASSERT_TRUE(store.value()->Append(kFpB, i, MakeEntry(i + 1000)));
    }
  }
  // Hold the exclusive lock so the child's open degrades to lock-free.
  auto writer = PersistentFeatureStore::Open(path, SmallStore());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->writable());

  int ready_pipe[2];
  int gc_done_pipe[2];
  ASSERT_EQ(pipe(ready_pipe), 0);
  ASSERT_EQ(pipe(gc_done_pipe), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: plain _exit codes, no gtest machinery.
    ::close(ready_pipe[0]);
    ::close(gc_done_pipe[1]);
    // Drop the writer handle this process inherited across fork: flock
    // lives on the (shared) open file description, so the parent's later
    // release only takes effect once this duplicate fd is gone too.
    writer.value().reset();
    PersistentFeatureStoreOptions opts = SmallStore();
    opts.read_only = true;
    auto reader = PersistentFeatureStore::Open(path, opts);
    if (!reader.ok() || reader.value()->writable()) _exit(2);
    for (uint32_t i = 0; i < kDocs; ++i) {
      auto a = reader.value()->Lookup(kFpA, i);
      auto b = reader.value()->Lookup(kFpB, i);
      if (!a.has_value() || !EntryEquals(*a, MakeEntry(i))) _exit(3);
      if (!b.has_value() || !EntryEquals(*b, MakeEntry(i + 1000))) _exit(3);
    }
    char byte = 'r';
    if (::write(ready_pipe[1], &byte, 1) != 1) _exit(4);
    if (::read(gc_done_pipe[0], &byte, 1) != 1) _exit(4);
    // GC ran against the file this reader still has mapped. Retained
    // chains must serve every record intact; dropped ones are
    // served-intact-or-missed, never torn.
    for (uint32_t i = 0; i < kDocs; ++i) {
      auto a = reader.value()->Lookup(kFpA, i);
      if (!a.has_value() || !EntryEquals(*a, MakeEntry(i))) _exit(5);
      auto b = reader.value()->Lookup(kFpB, i);
      if (b.has_value() && !EntryEquals(*b, MakeEntry(i + 1000))) _exit(6);
    }
    // Clean reopen converges to the post-GC view.
    reader = PersistentFeatureStore::Open(path, opts);
    if (!reader.ok()) _exit(7);
    for (uint32_t i = 0; i < kDocs; ++i) {
      auto a = reader.value()->Lookup(kFpA, i);
      if (!a.has_value() || !EntryEquals(*a, MakeEntry(i))) _exit(8);
      if (reader.value()->Lookup(kFpB, i).has_value()) _exit(9);
    }
    _exit(0);
  }
  ::close(ready_pipe[1]);
  ::close(gc_done_pipe[0]);

  char byte = 0;
  ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1) << "child died before ready";
  // Release the exclusive lock, then run the --store-gc open: the child
  // reader holds no lock, so this open wins writer role and unlinks kFpB
  // while the child's mapping is live.
  writer.value().reset();
  PersistentFeatureStoreOptions gc_opts = SmallStore();
  gc_opts.retain_fingerprints = {kFpA};
  auto gc = PersistentFeatureStore::Open(path, gc_opts);
  ASSERT_TRUE(gc.ok()) << gc.status().ToString();
  ASSERT_TRUE(gc.value()->writable());
  EXPECT_EQ(gc.value()->Stats().invalidated, kDocs);
  ASSERT_EQ(::write(gc_done_pipe[1], &byte, 1), 1);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child crashed";
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child failure code";
  ::close(ready_pipe[0]);
  ::close(gc_done_pipe[1]);
}

}  // namespace
}  // namespace zombie
