#include "apps/input_cache.hh"

namespace ccnuma::apps {

namespace {
thread_local InputCache* tlCurrent = nullptr;
} // namespace

InputCache*
InputCache::current()
{
    return tlCurrent;
}

InputCache::Scope::Scope(InputCache* cache) : prev_(tlCurrent)
{
    tlCurrent = cache;
}

InputCache::Scope::~Scope()
{
    tlCurrent = prev_;
}

} // namespace ccnuma::apps
