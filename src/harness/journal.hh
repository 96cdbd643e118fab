/**
 * @file
 * Sweep checkpoint journal: an append-only on-disk log (`.gvcj`) of
 * completed sweep cells, so an interrupted `gvc_sweep` restarted with
 * `--resume` skips every cell that already ran — and still exports
 * JSON/CSV byte-identical to an uninterrupted run, because journaled
 * results round-trip through the exact record serializer the results
 * documents use (results_io's X-macro field set).
 *
 * ## File format (version 1)
 *
 *     offset  size  field
 *     0       4     magic "GVCJ"
 *     4       4     format version, u32 little-endian
 *     8       8     FNV-1a-64 digest of the meta payload
 *     16      4     meta payload size, u32 little-endian
 *     20      ...   meta payload (JSON text)
 *
 * followed by zero or more self-delimiting record frames:
 *
 *     +0      4     payload size, u32 little-endian
 *     +4      8     FNV-1a-64 digest of the payload
 *     +12     ...   payload (JSON text)
 *
 * The meta payload names the sweep the journal belongs to (generator,
 * workload/design axes, scale, seed, shard position, shard-assignment
 * stamp), so a journal can never silently resume a different grid.
 * Each record payload is `{"key": <runConfigKey>, "record":
 * <resultRecordToJson>}`; the key is the cell's canonical memoization
 * key, which covers the effective SocConfig, so raw-mode overrides are
 * part of a cell's identity.  Frames are written with a single write
 * call and flushed as each cell completes, so a killed sweep loses at
 * most the frame in flight; the reader mirrors the `.gvct` reader's
 * strictness — truncated frames, digest mismatches, bad magic/version,
 * and malformed payloads each fail with a named error.
 *
 * Version 2 records are results-schema v4 records.  Version 1 journals
 * (same framing, records in the v1–v3 shapes) are import-only: they
 * still load as cost models and in gvc_plan, but journalMatchesGrid()
 * refuses to resume them.
 */

#ifndef GVC_HARNESS_JOURNAL_HH
#define GVC_HARNESS_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/results_io.hh"

namespace gvc
{

/** On-disk journal format version written. */
inline constexpr std::uint32_t kJournalVersion = 2;
/** Import-only format version whose records predate schema v4. */
inline constexpr std::uint32_t kJournalVersionLegacy = 1;

/** File magic ("GVCJ"). */
inline constexpr char kJournalMagic[4] = {'G', 'V', 'C', 'J'};

/** One journaled cell: its canonical key and the completed record. */
struct JournalEntry
{
    std::string key;
    ResultRecord record;
};

/**
 * Appends cells to a journal file.  create() starts a fresh journal
 * (truncating any previous file); openAppend() continues an existing
 * one whose header the caller has already read and validated.  Not
 * thread-safe — serialize append() calls (Sweep's cell hook already
 * runs under a mutex).
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Create/truncate @p path and write the header describing
     * @p meta's grid.  Returns false with a message in @p err on I/O
     * failure.
     */
    bool create(const std::string &path, const ExportMeta &meta,
                std::string *err = nullptr);

    /** Open an existing journal for appending further records. */
    bool openAppend(const std::string &path, std::string *err = nullptr);

    /**
     * Append one completed cell and flush, so the frame survives the
     * process being killed right afterwards.
     */
    bool append(const std::string &key, const ResultRecord &record,
                std::string *err = nullptr);

    bool isOpen() const { return file_ != nullptr; }
    const std::string &path() const { return path_; }

    /** Close explicitly (also done by the destructor). */
    void close();

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
};

/**
 * Serialize the journal header (magic, version, framed meta payload)
 * for @p meta — exposed for tests that corrupt specific bytes.
 */
std::vector<std::uint8_t> journalHeader(const ExportMeta &meta);

/** Serialize one record frame — exposed for the same tests. */
std::vector<std::uint8_t> journalFrame(const std::string &key,
                                       const ResultRecord &record);

/**
 * Parse a full journal image: header plus every record frame.
 * Validates magic, version, both digest layers, framing (a truncated
 * header or frame is an error, mirroring the `.gvct` reader), and
 * every record payload field-exactly.  `meta.schema_version` is the
 * results-schema version of the records (for a legacy journal, the
 * newest record shape found).  Returns false with a named error in
 * @p err on any defect.
 */
bool parseJournal(const std::uint8_t *data, std::size_t size,
                  ExportMeta &meta, std::vector<JournalEntry> &entries,
                  std::string *err = nullptr);

/** Read and parse the journal at @p path. */
bool readJournal(const std::string &path, ExportMeta &meta,
                 std::vector<JournalEntry> &entries,
                 std::string *err = nullptr);

/**
 * Check that a journal's meta describes the sweep about to run: the
 * records' results-schema version (a journal written before v4 is
 * refused by name), generator, workload/design axes, scale, seed,
 * shard position, and shard-assignment stamp must all match (`jobs`
 * is deliberately exempt — worker count does not affect results, so
 * an elastic fleet may resume with a different `--jobs`; the export's
 * "jobs" field reflects the final invocation).  Returns false with a named
 * mismatch in @p err.
 */
bool journalMatchesGrid(const ExportMeta &journal, const ExportMeta &run,
                        std::string *err = nullptr);

} // namespace gvc

#endif // GVC_HARNESS_JOURNAL_HH
