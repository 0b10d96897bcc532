/**
 * @file
 * The append-only columnar result store: one durable on-disk format
 * for sweep results and --resume checkpoints.
 *
 * A store is a CRC-framed chunk file (state/chunkio.hh) with three
 * chunk kinds:
 *
 *   header  format version + sweep identity (scenario, description,
 *           base seed, trials/point, point count, grid fingerprint)
 *   data    fixed-width columns for a batch of whole points:
 *             dictionary delta: new metric names -> dense u32 ids
 *             u64 pointIndex[] | u32 trial[] | u64 seed[]
 *             per metric column: nameId, presence bitmap,
 *             raw IEEE-754 f64 bits (bit-exact round trip)
 *   footer  totals (records, points, dictionary size) — written only
 *           by endSweep(), so its presence marks a finished sweep
 *
 * Durability model: data chunks always contain *whole* points, and in
 * durable mode every acceptPoint() is flushed + fsync'd. A kill leaves
 * at most a torn final frame, which readers drop — so a restart sees
 * exactly the completed points, O(1) append cost per point (the old
 * text manifest rewrote the whole file per point: O(points²)).
 *
 * Duplicate points (the same point appended twice to an adopted store)
 * must be bit-identical; conflicting duplicates are corruption and
 * raise ArchiveError at read time.
 */

#ifndef ICH_EXP_COLSTORE_HH
#define ICH_EXP_COLSTORE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/sink.hh"
#include "state/chunkio.hh"

namespace ich
{
namespace exp
{

/** Chunk kinds inside a column store file. */
constexpr std::uint32_t kColChunkHeader = 1;
constexpr std::uint32_t kColChunkData = 2;
constexpr std::uint32_t kColChunkFooter = 3;

/** On-disk format version (header chunk). */
constexpr std::uint32_t kColFormatVersion = 1;

/**
 * ResultSink that spills points into a column store file.
 *
 * beginSweep() adopts an existing file whose header matches the sweep
 * (appends continue after its valid frames — this is how resume
 * checkpoints survive), and recreates the file otherwise. endSweep()
 * writes the footer.
 */
class ColumnStoreWriter final : public ResultSink
{
  public:
    /**
     * @p durable: flush + fsync after every acceptPoint(), so a kill -9
     * never loses a completed point. Otherwise chunks flush in batches
     * of whole points and on endSweep() (spill-throughput mode).
     */
    explicit ColumnStoreWriter(std::string path, bool durable = false);
    ~ColumnStoreWriter() override;

    void beginSweep(const SweepMeta &meta) override;
    void acceptPoint(std::size_t point_idx, const TrialRecord *records,
                     std::size_t count) override;
    void endSweep() override;

    /** Points already present when beginSweep() adopted the file. */
    std::size_t adoptedPoints() const { return adoptedPoints_; }

  private:
    /**
     * One record ready for columnar encoding: metric values resolved
     * to dictionary ids so rows from different maps share columns.
     */
    struct Row {
        std::uint64_t pointIndex;
        std::uint32_t trial;
        std::uint64_t seed;
        /** (dictionary id, value) pairs in id order. */
        std::vector<std::pair<std::uint32_t, double>> metrics;
    };

    std::string path_;
    bool durable_;
    state::ChunkFileWriter file_;
    std::map<std::string, std::uint32_t> nameIds_;
    std::vector<std::string> namesInOrder_;
    std::size_t flushedNames_ = 0; ///< dictionary entries already on disk
    std::vector<Row> pending_;
    std::uint64_t fileRecords_ = 0; ///< records on disk + pending
    std::uint64_t filePoints_ = 0;  ///< whole points on disk + pending
    std::size_t adoptedPoints_ = 0;
    bool began_ = false;
    bool ended_ = false;
    bool sawFooter_ = false; ///< adopted file already ends in a footer

    void flushChunk();
};

/**
 * Random-access reader over a column store.
 *
 * Construction scans every chunk once (O(file) I/O, O(chunk) transient
 * memory) to validate CRCs, build the metric-name dictionary, and
 * index completed points — the per-point directory is the only
 * retained state, so reading a million-point store costs O(points)
 * index entries, never O(records) materialized trials.
 *
 * Throws state::ArchiveError on: unreadable file, missing/invalid
 * header, CRC mismatch, structurally invalid chunks, or conflicting
 * duplicate points. A torn tail (incomplete final frame) is NOT an
 * error: the tail is dropped and tornTail() reports it.
 */
class ColumnStoreReader
{
  public:
    explicit ColumnStoreReader(const std::string &path);
    ~ColumnStoreReader();
    ColumnStoreReader(const ColumnStoreReader &) = delete;
    ColumnStoreReader &operator=(const ColumnStoreReader &) = delete;

    const std::string &scenario() const { return scenario_; }
    const std::string &description() const { return description_; }
    std::uint64_t baseSeed() const { return baseSeed_; }
    int trialsPerPoint() const { return trialsPerPoint_; }
    std::uint64_t numPoints() const { return numPoints_; }
    std::uint64_t gridFp() const { return gridFp_; }

    /** True when the header identifies the same sweep as @p meta. */
    bool matches(const SweepMeta &meta) const;

    bool tornTail() const { return torn_; }
    /** True when the file ends with a footer whose totals check out. */
    bool cleanFooter() const { return cleanFooter_; }
    /** Bytes of intact frames (openAppend() truncation point). */
    std::uint64_t validBytes() const { return validBytes_; }

    std::size_t completedPoints() const { return directory_.size(); }
    std::uint64_t totalRecords() const { return totalRecords_; }

    /** Dictionary: metric names in id order. */
    const std::vector<std::string> &names() const { return names_; }

    /**
     * Visit every completed point in ascending point-index order (==
     * global-trial-index order, since records are in trial order) —
     * the iteration order that keeps store-backed aggregation and
     * rollups bit-identical to the materialized path. Chunks are
     * decoded on demand with a one-chunk cache: O(chunk) memory.
     */
    void forEachPoint(
        const std::function<void(std::size_t,
                                 const std::vector<TrialRecord> &)> &fn)
        const;

    /** Records of one completed point (trial order). */
    std::vector<TrialRecord> readPoint(std::size_t point_idx) const;

    bool hasPoint(std::size_t point_idx) const
    {
        return directory_.count(point_idx) != 0;
    }

  private:
    struct PointLoc {
        std::uint64_t chunkOffset; ///< frame offset of the data chunk
        std::uint32_t rowStart;    ///< first row of the point
        std::uint32_t rowCount;
    };
    struct DecodedChunk;

    std::string path_;
    std::string scenario_;
    std::string description_;
    std::uint64_t baseSeed_ = 0;
    int trialsPerPoint_ = 0;
    std::uint64_t numPoints_ = 0;
    std::uint64_t gridFp_ = 0;
    std::vector<std::string> names_;
    std::map<std::size_t, PointLoc> directory_;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t validBytes_ = 0;
    bool torn_ = false;
    bool cleanFooter_ = false;

    /** One-chunk decode cache (mutable: logically const reads). */
    mutable std::unique_ptr<DecodedChunk> cache_;

    const DecodedChunk &chunkAt(std::uint64_t offset) const;
    std::vector<TrialRecord> pointAt(const PointLoc &loc) const;
};

} // namespace exp
} // namespace ich

#endif // ICH_EXP_COLSTORE_HH
