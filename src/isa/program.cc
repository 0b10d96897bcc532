#include "isa/program.hh"

namespace ich
{

Program &
Program::loop(InstClass cls, std::uint64_t iterations, int unroll)
{
    steps_.emplace_back(LoopStep{makeKernel(cls, iterations, unroll)});
    return *this;
}

Program &
Program::loopChunked(InstClass cls, std::uint64_t iterations,
                     std::uint64_t record_every, int tag, int unroll)
{
    steps_.emplace_back(
        LoopStep{makeKernel(cls, iterations, unroll), record_every, tag});
    return *this;
}

Program &
Program::waitUntilTsc(Cycles tsc)
{
    steps_.emplace_back(WaitUntilTscStep{tsc});
    return *this;
}

Program &
Program::idle(Time duration)
{
    steps_.emplace_back(IdleStep{duration});
    return *this;
}

Program &
Program::mark(int tag)
{
    steps_.emplace_back(MarkStep{tag});
    return *this;
}

Program &
Program::call(std::function<void()> fn)
{
    steps_.emplace_back(CallStep{std::move(fn)});
    return *this;
}

} // namespace ich
