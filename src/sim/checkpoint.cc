#include "sim/checkpoint.hh"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "common/fsio.hh"
#include "common/log.hh"
#include "common/parse.hh"

namespace gds::sim
{

namespace
{

constexpr char kMagic[8] = {'G', 'D', 'S', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kFormatVersion = 1;

/** Stat kinds in the serialized stream. */
enum StatKind : std::uint8_t
{
    KindScalar = 0,
    KindVector = 1,
    KindDistribution = 2,
};

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Crash-injection hook for the torn-write tests: when
 * GDS_CKPT_KILL_MID_WRITE=<n> is set, the n-th checkpoint write since the
 * variable was set truncates the freshly published file to half its size — the
 * state a non-atomic writer would leave after power loss — and raises
 * SIGKILL, proving the loader detects the tear and falls back to .prev.
 */
bool
tearThisWrite()
{
    // Re-read the environment on every write (not latched in a static):
    // the crash tests fork and arm the hook in the child only, after the
    // parent process has already written checkpoints of its own. An
    // unparsable value warns and disables the hook (default 0).
    const std::uint64_t target =
        common::parseEnvU64("GDS_CKPT_KILL_MID_WRITE", 0);
    if (target == 0)
        return false;
    static std::atomic<std::uint64_t> writes{0};
    return writes.fetch_add(1) + 1 == target;
}

} // namespace

void
saveStats(Serializer &s, const stats::Group &group)
{
    const auto &list = group.stats();
    s.writeU32(static_cast<std::uint32_t>(list.size()));
    for (const stats::Stat *stat : list) {
        s.writeString(stat->name());
        if (const auto *sc = dynamic_cast<const stats::Scalar *>(stat)) {
            s.writeU8(KindScalar);
            s.writeDouble(sc->value());
        } else if (const auto *vec =
                       dynamic_cast<const stats::Vector *>(stat)) {
            s.writeU8(KindVector);
            s.writeU64(vec->size());
            for (std::size_t i = 0; i < vec->size(); ++i)
                s.writeDouble(vec->at(i));
        } else if (const auto *dist =
                       dynamic_cast<const stats::Distribution *>(stat)) {
            s.writeU8(KindDistribution);
            s.writeU64(stats::Distribution::numBuckets());
            for (std::size_t b = 0;
                 b < stats::Distribution::numBuckets(); ++b)
                s.writeU64(dist->bucketCount(b));
            s.writeU64(dist->count());
            s.writeU64(dist->sampleSum());
            s.writeU64(dist->maxSampled());
        } else {
            gds_assert(false, "unserializable stat kind for '%s'",
                       stat->name().c_str());
        }
    }
}

void
restoreStats(Deserializer &d, stats::Group &group)
{
    const auto &list = group.stats();
    const std::uint32_t n = d.readU32();
    gds_require(n == list.size(), CheckpointError,
                "stats group '%s' has %zu stats, checkpoint carries %u",
                group.path().c_str(), list.size(), n);
    for (stats::Stat *stat : list) {
        const std::string name = d.readString();
        gds_require(name == stat->name(), CheckpointError,
                    "stat order mismatch in group '%s': expected '%s', "
                    "checkpoint has '%s'", group.path().c_str(),
                    stat->name().c_str(), name.c_str());
        const std::uint8_t kind = d.readU8();
        if (auto *sc = dynamic_cast<stats::Scalar *>(stat)) {
            gds_require(kind == KindScalar, CheckpointError,
                        "stat '%s' kind mismatch", name.c_str());
            *sc = d.readDouble();
        } else if (auto *vec = dynamic_cast<stats::Vector *>(stat)) {
            gds_require(kind == KindVector, CheckpointError,
                        "stat '%s' kind mismatch", name.c_str());
            const std::uint64_t size = d.readU64();
            gds_require(size == vec->size(), CheckpointError,
                        "vector stat '%s' has %zu lanes, checkpoint "
                        "carries %llu", name.c_str(), vec->size(),
                        static_cast<unsigned long long>(size));
            for (std::size_t i = 0; i < vec->size(); ++i)
                (*vec)[i] = d.readDouble();
        } else if (auto *dist = dynamic_cast<stats::Distribution *>(stat)) {
            gds_require(kind == KindDistribution, CheckpointError,
                        "stat '%s' kind mismatch", name.c_str());
            const std::uint64_t buckets = d.readU64();
            std::vector<std::uint64_t> counts;
            counts.reserve(static_cast<std::size_t>(buckets));
            for (std::uint64_t b = 0; b < buckets; ++b)
                counts.push_back(d.readU64());
            const std::uint64_t samples = d.readU64();
            const std::uint64_t sum = d.readU64();
            const std::uint64_t max_sample = d.readU64();
            dist->restoreRaw(counts, samples, sum, max_sample);
        } else {
            gds_assert(false, "unserializable stat kind for '%s'",
                       name.c_str());
        }
    }
}

void
CheckpointMeta::expectCompatible(std::uint32_t state_version,
                                 const std::string &expected_identity) const
{
    gds_require(stateVersion == state_version, CheckpointError,
                "checkpoint state version %u, this build reads v%u",
                stateVersion, state_version);
    gds_require(identity == expected_identity, CheckpointError,
                "checkpoint identity \"%s\" does not match \"%s\"",
                identity.c_str(), expected_identity.c_str());
}

CheckpointStore::CheckpointStore(std::string directory,
                                 std::string base_name)
    : dir(std::move(directory))
{
    gds_require(!dir.empty(), ConfigError,
                "checkpoint directory must not be empty");
    gds_require(!base_name.empty(), ConfigError,
                "checkpoint basename must not be empty");
    current = dir + "/" + base_name + ".ckpt";
    previous = current + ".prev";
}

void
CheckpointStore::write(const CheckpointMeta &meta,
                       const Serializer &payload)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    gds_require(!ec, CheckpointError,
                "cannot create checkpoint directory '%s': %s",
                dir.c_str(), ec.message().c_str());

    // Assemble the whole file image in memory; checkpoints are a few MB
    // at the largest configurations and the checksum needs every byte.
    Serializer file;
    for (const char c : kMagic)
        file.writeU8(static_cast<std::uint8_t>(c));
    file.writeU32(kFormatVersion);
    file.writeU32(meta.stateVersion);
    file.writeU64(meta.cycle);
    file.writeU32(static_cast<std::uint32_t>(meta.identity.size()));
    for (const char c : meta.identity)
        file.writeU8(static_cast<std::uint8_t>(c));
    file.writeU64(payload.bytes().size());
    const std::vector<std::uint8_t> &image = file.bytes();
    // Checksum covers the header plus the payload that follows it.
    std::uint64_t check = fnv1a64(image.data(), image.size());
    check ^= fnv1a64(payload.bytes().data(), payload.bytes().size()) *
             0x100000001b3ULL;

    const std::string tmp = current + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        gds_require(static_cast<bool>(out), CheckpointError,
                    "cannot open checkpoint temp file '%s'", tmp.c_str());
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
        out.write(
            reinterpret_cast<const char *>(payload.bytes().data()),
            static_cast<std::streamsize>(payload.bytes().size()));
        out.write(reinterpret_cast<const char *>(&check), sizeof check);
        out.flush();
        gds_require(static_cast<bool>(out), CheckpointError,
                    "short write to checkpoint temp file '%s'",
                    tmp.c_str());
    }

    // Rotate the last good checkpoint out of the way, then publish.
    // Between the two renames there is no current file; the loader's
    // .prev fallback covers a crash in that window.
    if (std::filesystem::exists(current, ec)) {
        std::filesystem::rename(current, previous, ec);
        gds_require(!ec, CheckpointError,
                    "cannot rotate checkpoint '%s' to '%s': %s",
                    current.c_str(), previous.c_str(),
                    ec.message().c_str());
    }
    gds_require(durableRename(tmp, current), CheckpointError,
                "cannot publish checkpoint '%s'", current.c_str());

    if (tearThisWrite()) {
        const std::uintmax_t size =
            std::filesystem::file_size(current, ec);
        if (!ec)
            std::filesystem::resize_file(current, size / 2, ec);
        fsyncFile(current);
        std::raise(SIGKILL);
    }
}

CheckpointStore::Loaded
CheckpointStore::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    gds_require(static_cast<bool>(in), CheckpointError,
                "cannot open checkpoint '%s'", path.c_str());
    std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    gds_require(image.size() >= sizeof(kMagic) + 2 * sizeof(std::uint32_t) +
                                    2 * sizeof(std::uint64_t) +
                                    sizeof(std::uint32_t) +
                                    sizeof(std::uint64_t),
                CheckpointError, "checkpoint '%s' is truncated (%zu bytes)",
                path.c_str(), image.size());

    // Verify the trailing checksum before trusting any length field.
    const std::size_t body = image.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, image.data() + body, sizeof stored);
    Deserializer probe(image.data(), body);
    std::uint8_t magic[sizeof(kMagic)];
    for (auto &b : magic)
        b = probe.readU8();
    gds_require(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                CheckpointError, "'%s' is not a checkpoint file",
                path.c_str());
    const std::uint32_t format = probe.readU32();
    gds_require(format == kFormatVersion, CheckpointError,
                "checkpoint '%s' has format version %u, this build "
                "reads %u", path.c_str(), format, kFormatVersion);

    Loaded loaded;
    loaded.meta.stateVersion = probe.readU32();
    loaded.meta.cycle = probe.readU64();
    const std::uint32_t identity_len = probe.readU32();
    for (std::uint32_t i = 0; i < identity_len; ++i)
        loaded.meta.identity.push_back(
            static_cast<char>(probe.readU8()));
    const std::uint64_t payload_len = probe.readU64();
    gds_require(payload_len == probe.remaining(), CheckpointError,
                "checkpoint '%s' is torn: payload claims %llu bytes, "
                "file carries %zu", path.c_str(),
                static_cast<unsigned long long>(payload_len),
                probe.remaining());

    const std::size_t header = body - static_cast<std::size_t>(payload_len);
    std::uint64_t check = fnv1a64(image.data(), header);
    check ^= fnv1a64(image.data() + header,
                     static_cast<std::size_t>(payload_len)) *
             0x100000001b3ULL;
    gds_require(check == stored, CheckpointError,
                "checkpoint '%s' fails its checksum (corrupt or torn)",
                path.c_str());

    loaded.payload.assign(image.begin() +
                              static_cast<std::ptrdiff_t>(header),
                          image.begin() + static_cast<std::ptrdiff_t>(body));
    return loaded;
}

std::optional<CheckpointStore::Loaded>
CheckpointStore::loadLatest(std::string *reason) const
{
    // A missing file is the routine cold-start case and stays out of
    // `why`; only files that exist but fail validation are worth a
    // caller's warning.
    std::string why;
    for (const std::string &path : {current, previous}) {
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            continue;
        try {
            Loaded loaded = readFile(path);
            loaded.usedFallback = path == previous;
            if (loaded.usedFallback) {
                log::warnf("ckpt", {},
                           "checkpoint '%s' is unusable (%s); falling back "
                           "to '%s'", current.c_str(), why.c_str(),
                           previous.c_str());
                if (reason != nullptr)
                    *reason = why;
            }
            return loaded;
        } catch (const CheckpointError &e) {
            if (!why.empty())
                why += "; ";
            why += e.what();
        }
    }
    if (reason != nullptr)
        *reason = why;
    return std::nullopt;
}

void
CheckpointStore::removeAll() const
{
    std::error_code ec;
    std::filesystem::remove(current, ec);
    std::filesystem::remove(previous, ec);
    std::filesystem::remove(current + ".tmp", ec);
}

} // namespace gds::sim
