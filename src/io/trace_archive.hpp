// Binary trace archive: persist acquisition campaigns so the analysis module
// can run offline, detectors can be recalibrated later, and golden
// references can ship with a deployment. Format "EMTA" v1: a fixed header
// (magic, version, trace count, trace length, sample rate) followed by
// little-endian float64 samples, trace-major.
#pragma once

#include <string>

#include "core/trace.hpp"

namespace emts::io {

/// Writes a validated TraceSet; throws precondition_error on I/O failure or
/// an empty/ragged set.
void save_trace_archive(const std::string& path, const core::TraceSet& set);

/// Reads an archive written by save_trace_archive: a MappedTraceArchive
/// (which validates the header against the file size) copied out trace by
/// trace. Throws precondition_error on any mismatch (bad magic, truncated
/// payload, zero sizes).
core::TraceSet load_trace_archive(const std::string& path);

}  // namespace emts::io
