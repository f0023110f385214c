#include "report/result_cache.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault.hh"
#include "common/logging.hh"
#include "report/serialize.hh"

namespace rat::report {

namespace {

/**
 * Cache format version, folded into every key: bump it whenever the
 * serialization or simulation semantics change in a way the config
 * alone cannot express, and every stale cell turns into a miss.
 * v2 added the result-payload checksum; because the version lives in
 * the key string, v1 cells hash to different file names and simply
 * never match — they are plain misses, not quarantine candidates.
 */
constexpr unsigned kCacheFormatVersion = 2;

/**
 * A `*.tmp` file this old cannot belong to a live writer (one cell
 * writes in milliseconds); anything older was orphaned by a crash or
 * kill -9 and is safe to reap. The age gate keeps the open-time GC
 * from unlinking a temp another process is writing right now. The same
 * gate bounds how long a quarantined `*.bad` cell is kept for
 * post-mortem before the GC reclaims it.
 */
constexpr auto kStaleFileAge = std::chrono::minutes(10);

/**
 * Serializes cell renames (and the GC's unlinks) across every process
 * sharing the cache directory. Held only around metadata operations,
 * never around simulation or file streaming, so contention is
 * negligible even with dozens of farm workers.
 */
class DirLock
{
  public:
    explicit DirLock(const std::string &dir)
        : fd_(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC))
    {
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~DirLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }
    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;

  private:
    int fd_;
};

/** The directories holding temps: @p dir and its checkpoint subdir. */
std::vector<std::string>
tmpDirsOf(const std::string &dir)
{
    return {dir, (std::filesystem::path(dir) / kCheckpointSubdir).string()};
}

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    if (enabled())
        gcStaleFiles();
}

std::string
tmpPathFor(const std::string &path)
{
    static std::atomic<std::uint64_t> tmpSeq{0};
    return path + "." + std::to_string(::getpid()) + "." +
           std::to_string(tmpSeq.fetch_add(1)) + ".tmp";
}

void
ResultCache::gcStaleFiles()
{
    const auto now = std::filesystem::file_time_type::clock::now();
    const DirLock lock(dir_);
    for (const std::string &dir : tmpDirsOf(dir_)) {
        std::error_code ec;
        std::filesystem::directory_iterator it(dir, ec);
        if (ec)
            continue; // directory does not exist yet — nothing to reap
        for (const auto &entry : it) {
            if (!entry.is_regular_file(ec))
                continue;
            const auto ext = entry.path().extension();
            const bool tmp = ext == ".tmp";
            if (!tmp && ext != ".bad")
                continue;
            const auto mtime = entry.last_write_time(ec);
            if (ec || now - mtime < kStaleFileAge)
                continue;
            if (std::filesystem::remove(entry.path(), ec) && !ec)
                ++(tmp ? reapedTmp_ : reapedBad_);
        }
    }
}

std::uint64_t
ResultCache::removeTmpFilesOfPid(long pid) const
{
    if (!enabled())
        return 0;
    // Temp names are <name>.<pid>.<seq>.tmp (tmpPathFor); match the pid
    // field exactly so a seq number that happens to equal another
    // worker's pid cannot cause a cross-worker unlink.
    const std::string pidField = "." + std::to_string(pid);
    std::uint64_t removed = 0;
    const DirLock lock(dir_);
    for (const std::string &dir : tmpDirsOf(dir_)) {
        std::error_code ec;
        std::filesystem::directory_iterator it(dir, ec);
        if (ec)
            continue;
        for (const auto &entry : it) {
            const std::filesystem::path name = entry.path().filename();
            if (!entry.is_regular_file(ec) || name.extension() != ".tmp" ||
                name.stem().stem().extension() != pidField)
                continue;
            if (std::filesystem::remove(entry.path(), ec) && !ec)
                ++removed;
        }
    }
    return removed;
}

std::string
ResultCache::keyFor(const sim::SimConfig &config,
                    const std::vector<std::string> &programs)
{
    Json key = Json::object();
    key["v"] = Json(std::uint64_t{kCacheFormatVersion});
    key["config"] = toJson(config);
    Json progs = Json::array();
    for (const std::string &p : programs)
        progs.push(Json(p));
    key["programs"] = std::move(progs);
    return key.dump();
}

std::string
ResultCache::fileNameFor(const std::string &key)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return std::string(buf) + ".json";
}

namespace {

/** Checksum of a result payload: FNV-1a over its *compact* dump.
 * The Json layer guarantees exact numeric round-trips (uint64s print
 * as decimals, doubles as shortest-round-trip), so re-dumping a
 * parsed cell's result reproduces the stored-time bytes exactly. */
std::string
checksumHex(const std::string &payload)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(payload)));
    return buf;
}

} // namespace

void
ResultCache::quarantineCell(const std::string &path,
                            const char *why) const
{
    // <name>.json -> <name>.json.bad, preserving the damaged bytes
    // for post-mortem while guaranteeing the next load is a clean
    // miss (and the next store heals the slot).
    std::error_code ec;
    const DirLock lock(dir_);
    std::filesystem::rename(path, path + ".bad", ec);
    if (ec) {
        // Racing quarantiners, or an unwritable directory: fall back
        // to unlinking so the damage cannot be re-read forever.
        std::error_code ec2;
        std::filesystem::remove(path, ec2);
    }
    quarantined_.fetch_add(1);
    warn("result cache: quarantined %s (%s)", path.c_str(), why);
}

std::optional<sim::SimResult>
ResultCache::load(const std::string &key) const
{
    if (!enabled())
        return std::nullopt;
    const std::filesystem::path path =
        std::filesystem::path(dir_) / fileNameFor(key);

    std::ifstream in(path);
    if (!in) {
        misses_.fetch_add(1);
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();

    const auto doc = Json::parse(text.str());
    if (!doc || !doc->isObject()) {
        // Torn write or bit-rot: the file exists under this key's
        // name but its bytes are not a cell. Quarantine so it costs
        // exactly one re-simulation.
        quarantineCell(path.string(), "unparseable");
        misses_.fetch_add(1);
        return std::nullopt;
    }
    const Json *stored_key = doc->find("key");
    if (!stored_key || !stored_key->isString()) {
        quarantineCell(path.string(), "key field missing");
        misses_.fetch_add(1);
        return std::nullopt;
    }
    if (stored_key->asString() != key) {
        // Hash collision or key-format drift: a *valid* cell for a
        // different key. Miss, never quarantine — it may be somebody
        // else's good data.
        misses_.fetch_add(1);
        return std::nullopt;
    }
    const Json *checksum = doc->find("checksum");
    const Json *result_json = doc->find("result");
    if (!checksum || !checksum->isString() || !result_json ||
        !result_json->isObject()) {
        quarantineCell(path.string(), "checksum or result missing");
        misses_.fetch_add(1);
        return std::nullopt;
    }
    if (checksum->asString() != checksumHex(result_json->dump())) {
        quarantineCell(path.string(), "checksum mismatch");
        misses_.fetch_add(1);
        return std::nullopt;
    }
    sim::SimResult result;
    if (!fromJson(*result_json, result)) {
        quarantineCell(path.string(), "malformed result");
        misses_.fetch_add(1);
        return std::nullopt;
    }
    hits_.fetch_add(1);
    return result;
}

bool
ResultCache::store(const std::string &key,
                   const sim::SimResult &result) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("result cache: cannot create %s: %s", dir_.c_str(),
             ec.message().c_str());
        storeFailures_.fetch_add(1);
        return false;
    }

    Json result_json = toJson(result);
    Json cell = Json::object();
    cell["key"] = Json(key);
    cell["checksum"] = Json(checksumHex(result_json.dump()));
    cell["result"] = std::move(result_json);
    std::string payload = cell.dump(2);

    // Chaos injection: a torn store publishes a truncated cell *as if
    // it succeeded* — modelling a write torn by power loss or bit-rot
    // past the rename barrier, exactly the damage the load-time
    // checksum/quarantine path exists to absorb. Truncating to 2/3
    // guarantees the top-level object never closes, so the cell is
    // structurally unparseable, not just checksum-stale.
    if (FaultInjector::global().fire(FaultKind::TornStore))
        payload.resize(payload.size() * 2 / 3);

    const std::filesystem::path path =
        std::filesystem::path(dir_) / fileNameFor(key);
    // Temp name unique per (process, store call): two threads — or two
    // farm worker processes — storing the same key never interleave
    // bytes into one temp file. rename() is atomic, so readers only
    // ever see complete cells.
    const std::filesystem::path tmp = tmpPathFor(path.string());
    {
        std::ofstream out(tmp);
        if (!out) {
            warn("result cache: cannot write %s", tmp.c_str());
            storeFailures_.fetch_add(1);
            return false;
        }
        out << payload;
        out.flush();
        // A short write (ENOSPC, closed fd) must never be renamed into
        // place as a "valid" cell: verify the stream, and drop the
        // temp on failure.
        if (!out.good()) {
            out.close();
            std::filesystem::remove(tmp, ec);
            warn("result cache: short write to %s, cell dropped",
                 tmp.c_str());
            storeFailures_.fetch_add(1);
            return false;
        }
        out.close();
        if (out.fail()) {
            std::filesystem::remove(tmp, ec);
            warn("result cache: close of %s failed, cell dropped",
                 tmp.c_str());
            storeFailures_.fetch_add(1);
            return false;
        }
    }
    // Publish under the directory lock: concurrent same-key writers
    // serialize here, so the winner's bytes are whole-file, never a
    // mix. (rename alone is atomic; the lock also covers filesystems
    // where rename-over-open-target semantics are weaker, and fences
    // the GC's unlink pass.)
    const DirLock lock(dir_);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("result cache: rename to %s failed: %s", path.c_str(),
             ec.message().c_str());
        std::error_code ec2;
        std::filesystem::remove(tmp, ec2);
        storeFailures_.fetch_add(1);
        return false;
    }
    return true;
}

} // namespace rat::report
