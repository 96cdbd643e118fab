#include "harness/journal.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>

namespace gvc
{

namespace
{

/// Same FNV-1a-64 as the `.gvct` trace format.
std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(std::uint8_t(v & 0xff));
    out.push_back(std::uint8_t((v >> 8) & 0xff));
    out.push_back(std::uint8_t((v >> 16) & 0xff));
    out.push_back(std::uint8_t((v >> 24) & 0xff));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t((v >> (8 * i)) & 0xff));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(p[i]) << (8 * i);
    return v;
}

std::string
hexU64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return std::string(buf);
}

bool
parseHexU64(const std::string &s, std::uint64_t &out)
{
    if (s.size() != 16)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | std::uint64_t(digit);
    }
    out = v;
    return true;
}

/// Append one [size u32][digest u64][payload] frame for @p payload.
void
appendFrame(std::vector<std::uint8_t> &out, const std::string &payload)
{
    const auto *bytes =
        reinterpret_cast<const std::uint8_t *>(payload.data());
    putU32(out, std::uint32_t(payload.size()));
    putU64(out, fnv1a(bytes, payload.size()));
    out.insert(out.end(), bytes, bytes + payload.size());
}

Json
metaToJson(const ExportMeta &meta)
{
    Json j = Json::object();
    j.set("generator", meta.generator);
    Json workloads = Json::array();
    for (const auto &w : meta.workloads)
        workloads.push(Json(w));
    j.set("workloads", std::move(workloads));
    Json designs = Json::array();
    for (const auto &d : meta.designs)
        designs.push(Json(d));
    j.set("designs", std::move(designs));
    j.set("scale", Json(meta.scale));
    j.set("seed", Json(meta.seed));
    // Informational only: resume deliberately accepts a different
    // worker count (journalMatchesGrid ignores it).
    j.set("jobs", Json(meta.jobs));
    j.set("shard_index", Json(meta.shard_index));
    j.set("shard_count", Json(meta.shard_count));
    j.set("assignment", meta.shard_assignment);
    j.set("cost_digest", hexU64(meta.shard_cost_digest));
    j.set("tlb_policy", meta.tlb_policy);
    return j;
}

bool
metaFromJson(const Json &j, ExportMeta &meta, std::string &err)
{
    meta = ExportMeta{};
    if (!j.isObject()) {
        err = "journal meta: expected a JSON object";
        return false;
    }
    const auto getString = [&](const char *key, std::string &out) {
        const Json *v = j.find(key);
        if (!v || !v->isString()) {
            err = std::string("journal meta.") + key +
                  ": expected a string";
            return false;
        }
        out = v->asString();
        return true;
    };
    const auto getNumber = [&](const char *key, double &out) {
        const Json *v = j.find(key);
        if (!v || !v->isNumber()) {
            err = std::string("journal meta.") + key +
                  ": expected a number";
            return false;
        }
        out = v->asNumber();
        return true;
    };
    const auto getLabels = [&](const char *key,
                               std::vector<std::string> &out) {
        const Json *v = j.find(key);
        if (!v || !v->isArray()) {
            err = std::string("journal meta.") + key +
                  ": expected an array";
            return false;
        }
        for (std::size_t i = 0; i < v->size(); ++i) {
            if (!v->at(i).isString()) {
                err = std::string("journal meta.") + key +
                      ": expected an array of strings";
                return false;
            }
            out.push_back(v->at(i).asString());
        }
        return true;
    };
    const auto getInteger = [&](const char *key, std::uint64_t max,
                                auto &out) {
        const Json *v = j.find(key);
        std::uint64_t u = 0;
        if (!v || !v->toU64(u, max)) {
            err = std::string("journal meta.") + key +
                  ": expected a non-negative decimal integer no larger "
                  "than " +
                  std::to_string(max);
            return false;
        }
        out = u;
        return true;
    };
    const std::uint64_t u32 = std::numeric_limits<unsigned>::max();
    if (!getString("generator", meta.generator) ||
        !getLabels("workloads", meta.workloads) ||
        !getLabels("designs", meta.designs) ||
        !getNumber("scale", meta.scale) ||
        !getInteger("seed", ~std::uint64_t(0), meta.seed) ||
        !getInteger("jobs", u32, meta.jobs) ||
        !getInteger("shard_index", u32, meta.shard_index) ||
        !getInteger("shard_count", u32, meta.shard_count))
        return false;
    std::string digest;
    if (!getString("assignment", meta.shard_assignment) ||
        !getString("cost_digest", digest))
        return false;
    if (!parseHexU64(digest, meta.shard_cost_digest)) {
        err = "journal meta.cost_digest: expected 16 lowercase hex digits";
        return false;
    }
    // Absent in pre-policy-axis journals; those ran the defaults.
    if (const Json *tp = j.find("tlb_policy")) {
        if (!tp->isString()) {
            err = "journal meta.tlb_policy: expected a string";
            return false;
        }
        meta.tlb_policy = tp->asString();
    }
    return true;
}

void
setErr(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
}

} // namespace

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
JournalWriter::create(const std::string &path, const ExportMeta &meta,
                      std::string *err)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        setErr(err, "journal: cannot create '" + path + "'");
        return false;
    }
    path_ = path;
    const std::vector<std::uint8_t> header = journalHeader(meta);
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size() ||
        std::fflush(file_) != 0) {
        setErr(err, "journal: write failed on '" + path + "'");
        close();
        return false;
    }
    return true;
}

bool
JournalWriter::openAppend(const std::string &path, std::string *err)
{
    close();
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) {
        setErr(err, "journal: cannot open '" + path + "' for append");
        return false;
    }
    path_ = path;
    return true;
}

bool
JournalWriter::append(const std::string &key, const ResultRecord &record,
                      std::string *err)
{
    if (!file_) {
        setErr(err, "journal: append on a closed journal");
        return false;
    }
    const std::vector<std::uint8_t> frame = journalFrame(key, record);
    // One write + flush per cell: a kill between cells never leaves a
    // half frame, and a kill mid-write loses only this frame — the
    // strict reader then reports the truncation instead of resuming
    // from a corrupt record.
    if (std::fwrite(frame.data(), 1, frame.size(), file_) !=
            frame.size() ||
        std::fflush(file_) != 0) {
        setErr(err, "journal: write failed on '" + path_ + "'");
        return false;
    }
    return true;
}

std::vector<std::uint8_t>
journalHeader(const ExportMeta &meta)
{
    std::vector<std::uint8_t> out(std::begin(kJournalMagic),
                                  std::end(kJournalMagic));
    putU32(out, kJournalVersion);
    const std::string payload = metaToJson(meta).dump();
    const auto *bytes =
        reinterpret_cast<const std::uint8_t *>(payload.data());
    putU64(out, fnv1a(bytes, payload.size()));
    putU32(out, std::uint32_t(payload.size()));
    out.insert(out.end(), bytes, bytes + payload.size());
    return out;
}

std::vector<std::uint8_t>
journalFrame(const std::string &key, const ResultRecord &record)
{
    Json j = Json::object();
    j.set("key", key);
    j.set("record", resultRecordToJson(record));
    std::vector<std::uint8_t> out;
    appendFrame(out, j.dump());
    return out;
}

bool
parseJournal(const std::uint8_t *data, std::size_t size, ExportMeta &meta,
             std::vector<JournalEntry> &entries, std::string *err)
{
    entries.clear();
    if (size < 20) {
        setErr(err, "journal: truncated header");
        return false;
    }
    if (std::memcmp(data, kJournalMagic, 4) != 0) {
        setErr(err, "journal: bad magic (not a .gvcj file)");
        return false;
    }
    const std::uint32_t version = getU32(data + 4);
    if (version != kJournalVersion && version != kJournalVersionLegacy) {
        setErr(err, "journal: unsupported format version " +
                        std::to_string(version));
        return false;
    }
    const std::uint64_t meta_digest = getU64(data + 8);
    const std::uint32_t meta_size = getU32(data + 16);
    std::size_t pos = 20;
    if (size - pos < meta_size) {
        setErr(err, "journal: truncated meta payload");
        return false;
    }
    if (fnv1a(data + pos, meta_size) != meta_digest) {
        setErr(err, "journal: meta digest mismatch (corrupt file)");
        return false;
    }
    const std::string meta_text(reinterpret_cast<const char *>(data + pos),
                                meta_size);
    pos += meta_size;
    std::string perr;
    const Json meta_json = Json::parse(meta_text, &perr);
    if (meta_json.isNull()) {
        setErr(err, "journal: meta parse error: " + perr);
        return false;
    }
    std::string merr;
    if (!metaFromJson(meta_json, meta, merr)) {
        setErr(err, merr);
        return false;
    }
    if (version == kJournalVersionLegacy)
        meta.schema_version = kResultsSchemaVersionPlain;
    while (pos < size) {
        if (size - pos < 12) {
            setErr(err, "journal: truncated record frame header at offset " +
                            std::to_string(pos));
            return false;
        }
        const std::uint32_t payload_size = getU32(data + pos);
        const std::uint64_t digest = getU64(data + pos + 4);
        pos += 12;
        if (size - pos < payload_size) {
            setErr(err, "journal: truncated record payload at offset " +
                            std::to_string(pos));
            return false;
        }
        if (fnv1a(data + pos, payload_size) != digest) {
            setErr(err, "journal: record digest mismatch at offset " +
                            std::to_string(pos) + " (corrupt frame)");
            return false;
        }
        const std::string payload(reinterpret_cast<const char *>(data + pos),
                                  payload_size);
        pos += payload_size;
        const Json rec_json = Json::parse(payload, &perr);
        if (rec_json.isNull()) {
            setErr(err, "journal: record parse error: " + perr);
            return false;
        }
        const Json *key = rec_json.find("key");
        const Json *record = rec_json.find("record");
        if (!key || !key->isString() || !record) {
            setErr(err, "journal: record frame missing \"key\"/\"record\"");
            return false;
        }
        // Legacy journals hold v1–v3 records, which differ only in the
        // per-record blocks they carry.
        const int schema = version == kJournalVersion
                               ? kResultsSchemaVersion
                           : record->find("tenants")
                               ? kResultsSchemaVersionTenants
                           : record->find("kernels")
                               ? kResultsSchemaVersionKernels
                               : kResultsSchemaVersionPlain;
        JournalEntry entry;
        entry.key = key->asString();
        std::string rerr;
        if (!resultRecordFromJson(*record, entry.record, &rerr, schema)) {
            setErr(err, "journal: " + rerr);
            return false;
        }
        entries.push_back(std::move(entry));
        meta.schema_version = std::max(meta.schema_version, schema);
    }
    return true;
}

bool
readJournal(const std::string &path, ExportMeta &meta,
            std::vector<JournalEntry> &entries, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        setErr(err, "journal: cannot open '" + path + "'");
        return false;
    }
    std::vector<std::uint8_t> data;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.insert(data.end(), buf, buf + n);
    const bool read_ok = !std::ferror(f);
    std::fclose(f);
    if (!read_ok) {
        setErr(err, "journal: read failed on '" + path + "'");
        return false;
    }
    return parseJournal(data.data(), data.size(), meta, entries, err);
}

bool
journalMatchesGrid(const ExportMeta &journal, const ExportMeta &run,
                   std::string *err)
{
    if (journal.schema_version != run.schema_version) {
        setErr(err, "journal holds results schema v" +
                        std::to_string(journal.schema_version) +
                        " records, this sweep writes v" +
                        std::to_string(run.schema_version) +
                        ": a journal written before v" +
                        std::to_string(kResultsSchemaVersion) +
                        " lacks fields such as *_tlb_refs, so a resumed "
                        "export could not match an uninterrupted one "
                        "(start a fresh sweep with --journal)");
        return false;
    }
    const auto fail = [&](const std::string &msg) {
        setErr(err, "journal grid mismatch: " + msg +
                        " (the journal belongs to a different sweep; "
                        "start a fresh one with --journal)");
        return false;
    };
    if (journal.generator != run.generator)
        return fail("generator '" + journal.generator + "' vs '" +
                    run.generator + "'");
    if (journal.workloads != run.workloads)
        return fail("workload axis differs");
    if (journal.designs != run.designs)
        return fail("design axis differs");
    if (journal.scale != run.scale)
        return fail("scale differs");
    if (journal.seed != run.seed)
        return fail("seed differs");
    if (journal.shard_index != run.shard_index ||
        journal.shard_count != run.shard_count)
        return fail("shard " + std::to_string(journal.shard_index) + "/" +
                    std::to_string(journal.shard_count) + " vs " +
                    std::to_string(run.shard_index) + "/" +
                    std::to_string(run.shard_count));
    if (journal.shard_assignment != run.shard_assignment)
        return fail("shard assignment '" +
                    (journal.shard_assignment.empty()
                         ? std::string("modulo")
                         : journal.shard_assignment) +
                    "' vs '" +
                    (run.shard_assignment.empty() ? std::string("modulo")
                                                  : run.shard_assignment) +
                    "'");
    if (journal.shard_cost_digest != run.shard_cost_digest)
        return fail("cost-model digest differs");
    if (journal.tlb_policy != run.tlb_policy)
        return fail("tlb policy axis '" +
                    (journal.tlb_policy.empty() ? std::string("default")
                                                : journal.tlb_policy) +
                    "' vs '" +
                    (run.tlb_policy.empty() ? std::string("default")
                                            : run.tlb_policy) +
                    "'");
    return true;
}

} // namespace gvc
