// JSON (de)serialization for the library's domain objects.
//
// Formats are versioned ("vor/1") and round-trip exactly: a scenario
// written by one process can be re-solved by another and produce an
// identical schedule; an exported schedule can be re-validated, costed,
// and replayed through the simulator without the producing scheduler.
#pragma once

#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "media/catalog.hpp"
#include "net/topology.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "workload/request.hpp"
#include "workload/scenario.hpp"

namespace vor::io {

// ---- domain -> JSON ----------------------------------------------------

[[nodiscard]] util::Json ToJson(const net::Topology& topology);
[[nodiscard]] util::Json ToJson(const media::Catalog& catalog);
[[nodiscard]] util::Json ToJson(const std::vector<workload::Request>& requests);
[[nodiscard]] util::Json ToJson(const core::Schedule& schedule);
[[nodiscard]] util::Json ToJson(const workload::ScenarioParams& params);

/// Bundles topology + catalog + requests (+ the generating params) into a
/// single self-contained scenario document.
[[nodiscard]] util::Json ScenarioToJson(const workload::Scenario& scenario);

// ---- JSON -> domain ------------------------------------------------------

[[nodiscard]] util::Result<net::Topology> TopologyFromJson(const util::Json& j);
[[nodiscard]] util::Result<media::Catalog> CatalogFromJson(const util::Json& j);
[[nodiscard]] util::Result<std::vector<workload::Request>> RequestsFromJson(
    const util::Json& j);
[[nodiscard]] util::Result<core::Schedule> ScheduleFromJson(const util::Json& j);
[[nodiscard]] util::Result<workload::ScenarioParams> ScenarioParamsFromJson(
    const util::Json& j);
[[nodiscard]] util::Result<workload::Scenario> ScenarioFromJson(
    const util::Json& j);

// ---- files ---------------------------------------------------------------

[[nodiscard]] util::Result<std::string> ReadFile(const std::string& path);
/// Truncates and writes `path`; an error when the open, the write or the
/// final flush fails (e.g. a full disk).  Not atomic: a failed write
/// leaves a partial file.
[[nodiscard]] util::Status WriteFile(const std::string& path,
                                     const std::string& contents);

}  // namespace vor::io
