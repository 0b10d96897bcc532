/**
 * @file
 * Umbrella header for the experiment-orchestration subsystem.
 *
 * The pieces, bottom-up:
 *  - scenario.hh   declarative ScenarioSpec / parameter axes / registry
 *  - sink.hh       streaming ResultSink API (aggregator / tee /
 *                  materializer)
 *  - colstore.hh   append-only columnar result store (spill + resume)
 *  - runner.hh     SweepRunner: worker-pool fan-out, deterministic seeds
 *  - aggregate.hh  per-point metric summaries
 *  - resume.hh     completed-points result store path + grid fingerprint
 *  - report.hh     text / JSON / CSV reporters (materialized or
 *                  store-backed)
 *  - cli.hh        shared harness flags (--jobs, --seed, --json, --out,
 *                  --resume, --stream)
 *  - driver.hh     run-and-report glue for the bench executables, plus
 *                  trial visits and whole-sweep rollups on every path
 */

#ifndef ICH_EXP_EXP_HH
#define ICH_EXP_EXP_HH

#include "exp/aggregate.hh"
#include "exp/cli.hh"
#include "exp/colstore.hh"
#include "exp/driver.hh"
#include "exp/json.hh"
#include "exp/report.hh"
#include "exp/resume.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "exp/sink.hh"

#endif // ICH_EXP_EXP_HH
