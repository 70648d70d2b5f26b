/**
 * @file
 * WorkerPin: holds every worker of a serve::Session busy, so that
 * requests submitted afterwards stay queued, with their admission
 * tickets held, until the test lets the workers go.
 *
 * Each pin is one SpMV submitted with a completion callback that
 * blocks. The pipeline runs a callback on the worker that computed
 * its request, so a blocked callback holds that worker, and the
 * pin's own request keeps its admission slot until the callback
 * returns. Size a session's maxInflight to leave room for the pins.
 * Over the wire, pin through net::Server::session().
 */

#ifndef SMASH_TESTS_WORKER_PIN_HH
#define SMASH_TESTS_WORKER_PIN_HH

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/session.hh"

namespace smash::testing
{

class WorkerPin
{
  public:
    /** Pin all of @p session's workers with SpMVs of @p x against
     *  @p matrix; returns once each pin holds a worker, or after a
     *  pin failed, or after 30 s (see pinned()). */
    WorkerPin(serve::Session& session, const std::string& matrix,
              const std::vector<Value>& x)
        : state_(std::make_shared<State>()),
          workers_(session.threads())
    {
        for (int i = 0; i < workers_; ++i)
            session.submit(
                serve::SpmvRequest{matrix, x, {}},
                [state = state_](serve::Result<std::vector<Value>> r) {
                    std::unique_lock<std::mutex> lock(state->mutex);
                    if (!r.ok()) {
                        ++state->failed;
                        state->cv.notify_all();
                        return;
                    }
                    ++state->held;
                    state->cv.notify_all();
                    state->cv.wait(lock, [&] {
                        return state->open || state->permits > 0;
                    });
                    if (!state->open)
                        --state->permits;
                });
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->cv.wait_for(lock, std::chrono::seconds(30), [&] {
            return state_->held + state_->failed == workers_;
        });
    }

    WorkerPin(const WorkerPin&) = delete;
    WorkerPin& operator=(const WorkerPin&) = delete;

    /** Lets every worker go, so the session can drain. */
    ~WorkerPin() { release(); }

    /** True when every worker was held at construction. */
    bool
    pinned() const
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        return state_->held == workers_;
    }

    /** Let one pinned worker go; the others stay held. */
    void
    releaseOne()
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        ++state_->permits;
        state_->cv.notify_all();
    }

    /** Let every pinned worker go (idempotent). */
    void
    release()
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->open = true;
        state_->cv.notify_all();
    }

  private:
    struct State
    {
        std::mutex mutex;
        std::condition_variable cv;
        int held = 0;    //!< pins whose callback holds a worker
        int failed = 0;  //!< pins that resolved with a failure
        int permits = 0; //!< releaseOne() calls not yet taken
        bool open = false;
    };

    /** Shared with the callbacks, which may outlive this object. */
    std::shared_ptr<State> state_;
    const int workers_;
};

} // namespace smash::testing

#endif // SMASH_TESTS_WORKER_PIN_HH
