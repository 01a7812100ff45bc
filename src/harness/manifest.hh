/**
 * @file
 * Run provenance manifests. Every evaluationMatrix cell records what was
 * run (system, algorithm, dataset, seed), against which code (git SHA
 * baked in at build time) and which configuration (an FNV-1a hash over
 * every config field), how it ended (outcome), and what it cost
 * (simulated seconds + wall-clock load/sim/validate split). The manifest
 * is written as manifest.json next to the result cache, so a cached
 * figure can always be traced back to the exact runs that produced it.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/graphicionado.hh"
#include "baseline/gunrock_sim.hh"
#include "core/config.hh"

namespace gds::harness
{

/** FNV-1a 64-bit hash (provenance fingerprints, not cryptography). */
std::uint64_t fnv1a(std::string_view data);

/** 16-digit lowercase hex rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t value);

/** Fingerprint over every GdsConfig field (HBM geometry included). */
std::string configHash(const core::GdsConfig &cfg);

/** Fingerprint over every GraphicionadoConfig field. */
std::string configHash(const baseline::GraphicionadoConfig &cfg);

/** Fingerprint over every GunrockConfig field. */
std::string configHash(const baseline::GunrockConfig &cfg);

/** The git SHA this binary was built from, "-dirty" when the work tree
 *  differed from it at build time ("unknown" outside a repo). */
const char *buildGitSha();

/**
 * Build and host provenance as one JSON object, for BENCH_*.json files:
 * {"gitSha", "compiler", "buildType", "hardwareThreads", "gdsJobs",
 *  "gdsScale"}. Two files carrying it can be compared field by field.
 */
void writeProvenance(std::ostream &os);

/** Provenance of one evaluation cell. */
struct ManifestCell
{
    std::string key;        ///< result-cache key
    std::string system;
    std::string algorithm;
    std::string dataset;
    std::uint64_t seed = 0; ///< dataset generator seed
    std::string configHash; ///< fingerprint of the effective config
    std::string outcome;    ///< RunRecord::status
    bool cached = false;    ///< served from the result cache, not re-run
    double simulatedSeconds = 0.0;
    double wallLoadSeconds = 0.0;     ///< dataset load/generation
    double wallSimSeconds = 0.0;      ///< cycle-level simulation
    double wallValidateSeconds = 0.0; ///< post-run models + bookkeeping
    /** Process peak RSS in bytes when the cell finished (the memory
     *  footprint track, ROADMAP item 3); 0 when the probe is
     *  unavailable. Monotone across a run: the high-water mark as of
     *  this cell, not the cell's own footprint in isolation. */
    double peakRssBytes = 0.0;
};

/**
 * Thread-safe collection of cell provenance, serialized as one JSON
 * object: {"gitSha": ..., "scaleDivisor": ..., "cells": [...]}.
 */
class Manifest
{
  public:
    Manifest() = default;

    Manifest(const Manifest &) = delete;
    Manifest &operator=(const Manifest &) = delete;

    void add(ManifestCell cell);
    std::size_t size() const;

    void write(std::ostream &os) const;

    /** write() to @p path; returns false (and warns) on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<ManifestCell> cells;
};

} // namespace gds::harness
