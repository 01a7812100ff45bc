/**
 * @file
 * Versioned, checksummed checkpoint/restore of mid-run simulator state.
 *
 * Components serialize into a Serializer (a flat byte buffer with typed
 * append helpers) and restore from a Deserializer (the bounds-checked
 * mirror; every defect throws a typed CheckpointError). The byte stream
 * is a same-build artifact: values are host-endian memcpy images guarded
 * by a state-version stamp and an identity string, never a portable
 * interchange format — a checkpoint resumes the exact binary that wrote
 * it, which is all preemption tolerance needs.
 *
 * CheckpointStore manages the on-disk lifecycle: atomically published
 * files (`<base>.ckpt` via fsync + rename + directory fsync), one-deep
 * rotation to `<base>.ckpt.prev` so a crash mid-write — or a torn file
 * from a lost power event — falls back to the previous good checkpoint,
 * and checksum/version/length validation on load.
 *
 * Layout of one checkpoint file:
 *
 *   magic "GDSCKPT1"            8 bytes
 *   format version              u32 (layout of this envelope)
 *   state  version              u32 (producer's serialization layout)
 *   cycle                       u64 (component-local clock at the snapshot)
 *   identity length + bytes     u32 + n (config hash, graph, algo, kind)
 *   payload  length + bytes     u64 + n (the Serializer buffer)
 *   FNV-1a-64 checksum          u64 (over every preceding byte)
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace gds::sim
{

/** Typed append-only byte buffer that components save their state into. */
class Serializer
{
  public:
    Serializer() = default;

    void writeBool(bool v) { writeU8(v ? 1 : 0); }
    void writeU8(std::uint8_t v) { buf.push_back(v); }
    void writeU32(std::uint32_t v) { writeRaw(&v, sizeof v); }
    void writeU64(std::uint64_t v) { writeRaw(&v, sizeof v); }
    void writeDouble(double v) { writeRaw(&v, sizeof v); }

    void
    writeString(const std::string &v)
    {
        writeU64(v.size());
        writeRaw(v.data(), v.size());
    }

    /** Structural sanity marker; the reader asserts it back. */
    void writeMarker(std::uint32_t tag) { writeU32(tag); }

    template <typename T>
    void
    writePod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "writePod needs a trivially copyable type");
        writeRaw(&v, sizeof v);
    }

    template <typename T>
    void
    writePodVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "writePodVec needs a trivially copyable type");
        writeU64(v.size());
        if (!v.empty())
            writeRaw(v.data(), v.size() * sizeof(T));
    }

    template <typename T>
    void
    writePodDeque(const std::deque<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "writePodDeque needs a trivially copyable type");
        writeU64(v.size());
        for (const T &e : v)
            writeRaw(&e, sizeof e);
    }

    /**
     * Enroll a live object address. Pointers are serialized as the index
     * of their registration; the restore side must registerPointer() the
     * same objects in the same order.
     */
    void
    registerPointer(const void *p)
    {
        gds_assert(p != nullptr, "cannot register a null pointer");
        const auto id = static_cast<std::uint32_t>(ids.size());
        ids.emplace(p, id);
    }

    template <typename T>
    void
    writePointer(const T *p)
    {
        if (p == nullptr) {
            writeU32(kNullPointer);
            return;
        }
        const auto it = ids.find(p);
        gds_assert(it != ids.end(),
                   "serialized pointer was never registered");
        writeU32(it->second);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf; }

    static constexpr std::uint32_t kNullPointer = ~std::uint32_t{0};

  private:
    void
    writeRaw(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + n);
    }

    std::vector<std::uint8_t> buf;
    std::unordered_map<const void *, std::uint32_t> ids;
};

/**
 * Bounds-checked reader over a checkpoint payload. Any underrun, marker
 * mismatch or malformed length throws CheckpointError; restore code can
 * therefore consume the stream without defensive length bookkeeping.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *payload, std::size_t size)
        : data(payload), len(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &payload)
        : Deserializer(payload.data(), payload.size())
    {}

    bool readBool() { return readU8() != 0; }

    std::uint8_t
    readU8()
    {
        need(1);
        return data[pos++];
    }

    std::uint32_t readU32() { return readRawAs<std::uint32_t>(); }
    std::uint64_t readU64() { return readRawAs<std::uint64_t>(); }
    double readDouble() { return readRawAs<double>(); }

    std::string
    readString()
    {
        const std::uint64_t n = readU64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data + pos),
                      static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n);
        return s;
    }

    void
    expectMarker(std::uint32_t tag)
    {
        const std::uint32_t found = readU32();
        gds_require(found == tag, CheckpointError,
                    "checkpoint section marker mismatch "
                    "(found 0x%08x, expected 0x%08x at offset %zu)",
                    found, tag, pos - sizeof(std::uint32_t));
    }

    template <typename T>
    T
    readPod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "readPod needs a trivially copyable type");
        return readRawAs<T>();
    }

    template <typename T>
    void
    readPodVec(std::vector<T> &out)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "readPodVec needs a trivially copyable type");
        const std::uint64_t n = readU64();
        gds_require(n <= remaining() / sizeof(T), CheckpointError,
                    "checkpoint truncated: vector of %llu elements "
                    "exceeds the %zu bytes left",
                    static_cast<unsigned long long>(n), remaining());
        out.resize(static_cast<std::size_t>(n));
        if (n != 0) {
            std::memcpy(out.data(), data + pos,
                        static_cast<std::size_t>(n) * sizeof(T));
            pos += static_cast<std::size_t>(n) * sizeof(T);
        }
    }

    template <typename T>
    void
    readPodDeque(std::deque<T> &out)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "readPodDeque needs a trivially copyable type");
        const std::uint64_t n = readU64();
        out.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(readRawAs<T>());
    }

    /** Mirror of Serializer::registerPointer; same objects, same order. */
    void registerPointer(void *p) { ptrs.push_back(p); }

    template <typename T>
    T *
    readPointer()
    {
        const std::uint32_t id = readU32();
        if (id == Serializer::kNullPointer)
            return nullptr;
        gds_require(id < ptrs.size(), CheckpointError,
                    "checkpoint references unregistered pointer id %u "
                    "(only %zu registered)", id, ptrs.size());
        return static_cast<T *>(ptrs[id]);
    }

    std::size_t remaining() const { return len - pos; }

    /** Assert the whole payload was consumed (catches layout drift). */
    void
    expectEnd() const
    {
        gds_require(pos == len, CheckpointError,
                    "checkpoint payload has %zu unread trailing bytes",
                    len - pos);
    }

  private:
    void
    need(std::uint64_t n)
    {
        gds_require(n <= len - pos, CheckpointError,
                    "checkpoint truncated: need %llu bytes at offset %zu "
                    "of %zu", static_cast<unsigned long long>(n), pos, len);
    }

    template <typename T>
    T
    readRawAs()
    {
        need(sizeof(T));
        T v;
        std::memcpy(&v, data + pos, sizeof v);
        pos += sizeof v;
        return v;
    }

    const std::uint8_t *data;
    std::size_t len;
    std::size_t pos = 0;
    std::vector<void *> ptrs;
};

/**
 * Serialize every stat registered directly on @p group (child groups
 * belong to child components, which save themselves). Order is the
 * registration order, which is fixed at construction.
 */
void saveStats(Serializer &s, const stats::Group &group);

/**
 * Restore the stats written by saveStats(). Names and kinds are verified
 * stat-by-stat; any mismatch means the checkpoint came from a different
 * layout and throws CheckpointError.
 */
void restoreStats(Deserializer &d, stats::Group &group);

/** Descriptive header of one checkpoint, verified before restoring. */
struct CheckpointMeta
{
    /** Producer's serialization-layout version (bump on layout change). */
    std::uint32_t stateVersion = 0;
    /** Who this state belongs to: config hash, graph shape, algorithm,
     *  accelerator kind. A resume with a different identity is refused. */
    std::string identity;
    /** Component-local clock at the snapshot (diagnostics only). */
    Cycle cycle = 0;

    /**
     * Refuse a resume into state this checkpoint does not describe.
     * @throws CheckpointError when the state version differs from
     *         @p state_version (another serialization layout) or the
     *         identity differs from @p expected_identity (another
     *         config, graph, algorithm or accelerator).
     */
    void expectCompatible(std::uint32_t state_version,
                          const std::string &expected_identity) const;
};

/**
 * On-disk lifecycle of one logical checkpoint: `<dir>/<base>.ckpt` plus a
 * one-deep `.prev` rotation. write() is atomic and durable; loadLatest()
 * validates and falls back, so a torn or corrupt current file costs at
 * most one checkpoint interval of recomputation.
 */
class CheckpointStore
{
  public:
    CheckpointStore(std::string directory, std::string base_name);

    const std::string &currentPath() const { return current; }
    const std::string &previousPath() const { return previous; }

    /**
     * Atomically publish a new checkpoint, rotating any existing current
     * file to `.prev` first. @throws CheckpointError on I/O failure.
     */
    void write(const CheckpointMeta &meta, const Serializer &payload);

    struct Loaded
    {
        CheckpointMeta meta;
        std::vector<std::uint8_t> payload;
        bool usedFallback = false; ///< current was bad; .prev supplied this
    };

    /**
     * Newest valid checkpoint: the current file, else the `.prev`
     * fallback. Corruption is reported through @p reason (never thrown):
     * falling back — or starting clean — is the contract. Missing files
     * are the routine cold-start case and leave @p reason empty.
     */
    std::optional<Loaded> loadLatest(std::string *reason = nullptr) const;

    /** Parse and validate one checkpoint file.
     *  @throws CheckpointError on any defect. */
    static Loaded readFile(const std::string &path);

    /** Delete both files (the run completed; nothing left to resume). */
    void removeAll() const;

  private:
    std::string dir;
    std::string current;
    std::string previous;
};

} // namespace gds::sim
