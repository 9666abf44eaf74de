//! The system calls std does not wrap: waiting on a socket with a
//! sub-millisecond timeout, asking for precise timer wake-ups, and
//! flushing the machine's dirty pages before a run.

use std::io;
use std::net::TcpStream;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn sync();
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Waits until `stream` is readable (or writable, with `want_write`)
/// or `timeout` has passed.
pub fn wait_ready(stream: &TcpStream, want_write: bool, timeout: Duration) -> io::Result<()> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: if want_write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are valid for the duration of the call,
    // nfds is 1, and a null sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Sets this thread's timer slack to 1 ns, so a timed wait ends at
/// its deadline instead of up to 50 µs after it (the default slack).
pub fn fine_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Flushes every dirty page of the machine to disk and waits for it, so
/// writeback left behind by the build (hundreds of MB) does not run
/// during the measurement.
pub fn flush_dirty_pages() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}
