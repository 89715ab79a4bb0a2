//! The one stdout writer of every `ecp` command. A reader that stops
//! early (`ecp run <id> | head -1`) closes the pipe under the command;
//! the first write that finds it closed turns every later write into a
//! no-op, and the command runs to its end: files it writes after its
//! output (`--trace`, the campaign report) are still written, and it
//! exits as it would have with the pipe open.

use std::io::{ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write found stdout closed.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout and flush; dropped once stdout is closed.
/// Any other write error panics, as `print!` does.
pub fn print(args: std::fmt::Arguments) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = std::io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => panic!("failed printing to stdout: {e}"),
        Ok(()) => {}
    }
}

/// `println!` through [`print`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::print(format_args!("{}\n", format_args!($($arg)*)))
    };
}
pub(crate) use outln;
