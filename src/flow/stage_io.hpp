#pragma once
// Serializable stage I/O: FlowContext snapshots for the stage-result cache.
//
// A snapshot captures everything the pipeline has computed so far -- the
// FlowResult scalars, the GA result, the synthesized and camouflaged
// netlists, the attack reports -- as one report::Json document.  Snapshots
// are taken after each completed stage and restored before skipping the
// stages a cache hit covers, so a re-submitted scenario re-runs only the
// stages whose parameters changed (see flow/spec_hash.hpp for the keys).
//
// Bit-identity: report::Json emits doubles with %.17g (exact round-trip)
// and integral values without a fractional part, so a restored context is
// value-identical to the one snapshotted -- cached and fresh runs produce
// byte-identical reports.
//
// Not captured: the latency histograms' raw buckets beyond what
// AdversaryReport serializes.
// ctx.best_spec is not serialized either -- SynthesizeStage constructs it
// deterministically from (functions, ga.best), and restore does the same.

#include "camo/camo_netlist.hpp"
#include "flow/pipeline.hpp"
#include "map/netlist.hpp"
#include "report/json.hpp"

namespace mvf::flow {

/// Mapped-netlist round-trip (library comes from the caller: netlists only
/// store cell ids, which are stable for the standard libraries).
report::Json netlist_to_json(const tech::Netlist& n);
tech::Netlist netlist_from_json(const report::Json& j,
                                tech::GateLibrary library);

report::Json camo_netlist_to_json(const camo::CamoNetlist& n);
camo::CamoNetlist camo_netlist_from_json(const report::Json& j,
                                         camo::CamoLibrary library);

/// Serializes everything stages have produced in `ctx` so far.
report::Json snapshot_context(const FlowContext& ctx);

/// Inverse of snapshot_context: overwrites ctx->result (and re-derives
/// ctx->best_spec when the snapshot was taken at or after SynthesizeStage).
/// Throws report::JsonError on malformed snapshots.
void restore_context(const report::Json& snapshot, FlowContext* ctx);

}  // namespace mvf::flow
