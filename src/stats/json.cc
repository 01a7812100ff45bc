#include "stats/json.hh"

#include <cmath>

#include "common/jsonio.hh"

namespace gds::stats
{

void
emitJsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v)) {
        os << v;
    } else {
        os << "null";
    }
}

void
emitJsonString(std::ostream &os, const std::string &s)
{
    os << common::jsonQuote(s);
}

namespace
{

void
dumpGroup(const Group &group, std::ostream &os)
{
    os << '{';
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ',';
        first = false;
    };
    for (const Stat *s : group.stats()) {
        sep();
        emitJsonString(os, s->name());
        os << ':';
        if (const auto *scalar = dynamic_cast<const Scalar *>(s)) {
            emitJsonNumber(os, scalar->value());
        } else if (const auto *vec = dynamic_cast<const Vector *>(s)) {
            os << '[';
            for (std::size_t i = 0; i < vec->size(); ++i) {
                if (i)
                    os << ',';
                emitJsonNumber(os, vec->at(i));
            }
            os << ']';
        } else if (const auto *dist =
                       dynamic_cast<const Distribution *>(s)) {
            os << '{';
            for (std::size_t b = 0; b < Distribution::numBuckets(); ++b) {
                if (b)
                    os << ',';
                emitJsonString(os, Distribution::bucketLabel(b));
                os << ':' << dist->bucketCount(b);
            }
            os << '}';
        } else {
            os << "null";
        }
    }
    for (const Group *child : group.childGroups()) {
        sep();
        emitJsonString(os, child->name());
        os << ':';
        dumpGroup(*child, os);
    }
    os << '}';
}

} // namespace

void
dumpJson(const Group &group, std::ostream &os)
{
    dumpGroup(group, os);
    os << '\n';
}

} // namespace gds::stats
