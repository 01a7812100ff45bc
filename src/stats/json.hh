/**
 * @file
 * JSON export of a statistics tree, for machine consumption of run
 * results (plotting scripts, CI dashboards). Reading JSON back is
 * common::parseJson's job (common/jsonio.hh).
 */

#pragma once

#include <ostream>
#include <string>

#include "stats/stats.hh"

namespace gds::stats
{

/**
 * Serialize a group (and all children) as a JSON object:
 * scalars as numbers, vectors as arrays, distributions as
 * {bucketLabel: count} objects.
 */
void dumpJson(const Group &group, std::ostream &os);

/** Emit @p s as a quoted, escaped JSON string (common::jsonQuote). */
void emitJsonString(std::ostream &os, const std::string &s);

/** Emit @p v as a JSON number (non-finite values become null). */
void emitJsonNumber(std::ostream &os, double v);

} // namespace gds::stats
