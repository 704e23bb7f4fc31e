// DMTCP-style plugin hook lifecycle.
//
// DMTCP drives registered plugins through precheckpoint / resume / restart
// events; CRAC is implemented as exactly such a plugin (paper §4.2). The
// engine here reproduces that contract: plugins contribute sections at
// checkpoint time and consume them at restart.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "ckpt/image.hpp"

namespace crac::ckpt {

class CkptPlugin {
 public:
  virtual ~CkptPlugin() = default;

  virtual std::string name() const = 0;

  // Called first, before any section is written. Plugins bring external
  // state to a stop here (for CRAC: drain the device queue) so the sections
  // that follow — whoever writes them first — see a consistent world.
  virtual Status quiesce() { return OkStatus(); }

  // Freeze/release split the stop-the-world window out of the capture.
  // freeze() runs with the world about to stop: it must leave the plugin
  // holding a consistent logical snapshot that precheckpoint() can later
  // serialize even while the application mutates live state (a COW overlay
  // makes that safe for bulk memory). release() ends the pause — the
  // application resumes immediately after, possibly long before
  // precheckpoint() finishes draining the frozen snapshot.
  //
  // Both must be idempotent: orchestration error paths release defensively,
  // and a freeze() on an already-frozen plugin is a no-op (this replaces
  // the old defensive double-quiesce on the precheckpoint path). Default
  // implementations preserve legacy behavior: freeze() quiesces and
  // release() does nothing, which collapses back to the stop-the-world
  // protocol for plugins that never opt in.
  virtual Status freeze() { return quiesce(); }
  virtual Status release() { return OkStatus(); }

  // Called with the application quiesced. Plugins drain external state (for
  // CRAC: GPU buffers) into image sections here. Sections should be written
  // in the order restart() consumes them: the image streams in write order,
  // and a restore-while-receiving restart can only overlap transfer with
  // restore when it never has to wait for a section behind the one it needs
  // (see docs/image_format.md, "Streaming restore ordering contract").
  virtual Status precheckpoint(ImageWriter& image) = 0;

  // Called after a checkpoint when execution continues in the original
  // process.
  virtual Status resume() = 0;

  // Called in the restarted process after upper-half memory has been
  // restored; plugins rebuild external state from their sections. The
  // reader is non-const because section payloads stream off the image
  // source on demand (the pull advances the source cursor).
  virtual Status restart(ImageReader& image) = 0;
};

class PluginRegistry {
 public:
  void register_plugin(CkptPlugin* plugin) { plugins_.push_back(plugin); }

  // freeze/precheckpoint run in registration order; release/resume/restart
  // in reverse, mirroring DMTCP's nesting discipline.
  Status run_freeze() {
    for (CkptPlugin* p : plugins_) {
      CRAC_RETURN_IF_ERROR(p->freeze());
    }
    return OkStatus();
  }
  Status run_release() {
    for (auto it = plugins_.rbegin(); it != plugins_.rend(); ++it) {
      CRAC_RETURN_IF_ERROR((*it)->release());
    }
    return OkStatus();
  }
  Status run_precheckpoint(ImageWriter& image) {
    for (CkptPlugin* p : plugins_) {
      CRAC_RETURN_IF_ERROR(p->precheckpoint(image));
    }
    return OkStatus();
  }
  Status run_resume() {
    for (auto it = plugins_.rbegin(); it != plugins_.rend(); ++it) {
      CRAC_RETURN_IF_ERROR((*it)->resume());
    }
    return OkStatus();
  }
  Status run_restart(ImageReader& image) {
    for (auto it = plugins_.rbegin(); it != plugins_.rend(); ++it) {
      CRAC_RETURN_IF_ERROR((*it)->restart(image));
    }
    return OkStatus();
  }

  std::size_t size() const noexcept { return plugins_.size(); }

 private:
  std::vector<CkptPlugin*> plugins_;
};

}  // namespace crac::ckpt
