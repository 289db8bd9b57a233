//! Spans recorded from the benchmark's own code around each call into a
//! layer's public functions (nothing inside the program is instrumented).
//!
//! Each thread records into its own [`Tracer`], installed in a thread-local
//! slot. A span holds its name, start, end and parent (the span open on the
//! same thread when it began). Spans are kept in memory and written out
//! when the run ends ([`write_spans`]). Per name the tracer also keeps a
//! running count, total time and self time — the span's duration minus the
//! time its child spans cover — which is what the per-layer metrics read.

use std::cell::RefCell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span (and of spans past the raw-span cap).
pub const NO_PARENT: u32 = u32::MAX;

/// Raw spans kept per thread for the written trace; aggregates keep
/// counting past this.
const RAW_CAP: usize = 200_000;

/// One finished span, times in ns since the run's trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per span in ns (0 when the span never ran).
    pub fn ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    name: &'static str,
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// One thread's spans.
pub struct Tracer {
    thread: usize,
    epoch: Instant,
    raw: Vec<Span>,
    open: Vec<Open>,
    aggs: Vec<(&'static str, Agg)>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let start_ns = self.now();
        let parent = self.open.last().map_or(NO_PARENT, |o| o.id);
        let id = if self.raw.len() < RAW_CAP {
            self.raw.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (self.raw.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.open.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now();
        let open = self.open.pop().expect("span exit without enter");
        let duration = end_ns.saturating_sub(open.start_ns);
        if open.id != NO_PARENT {
            self.raw[open.id as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        let slot = match self.aggs.iter().position(|(n, _)| *n == open.name) {
            Some(i) => i,
            None => {
                self.aggs.push((open.name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        let agg = &mut self.aggs[slot].1;
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(open.child_ns);
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on the calling thread. `epoch` is shared by every
/// thread of the run so span times line up.
pub fn install(thread: usize, epoch: Instant) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            thread,
            epoch,
            raw: Vec::new(),
            open: Vec::with_capacity(16),
            aggs: Vec::with_capacity(16),
        })
    });
}

/// Continue recording into a tracer taken off a thread earlier.
pub fn resume(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Whether the calling thread records spans.
pub fn is_installed() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Stop recording on the calling thread and hand back its spans.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|t| t.borrow_mut().take())
}

/// Open a span that closes when the guard drops. A no-op on threads with
/// no tracer installed.
pub fn span(name: &'static str) -> SpanGuard {
    let active = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tracer) => {
            tracer.enter(name);
            true
        }
        None => false,
    });
    SpanGuard { active }
}

/// Closes its span on drop.
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|t| {
                if let Some(tracer) = t.borrow_mut().as_mut() {
                    tracer.exit();
                }
            });
        }
    }
}

/// The spans of every thread of one traced phase.
#[derive(Default)]
pub struct Collected {
    pub tracers: Vec<Tracer>,
}

impl Collected {
    /// Totals of `name` summed over every thread.
    pub fn agg(&self, name: &str) -> Agg {
        let mut out = Agg::default();
        for tracer in &self.tracers {
            for (n, a) in &tracer.aggs {
                if *n == name {
                    out.count += a.count;
                    out.total_ns += a.total_ns;
                    out.self_ns += a.self_ns;
                }
            }
        }
        out
    }
}

/// Write every kept span as tab-separated `thread id parent name start_ns
/// end_ns` lines (parent `-` for roots).
pub fn write_spans(path: &Path, collected: &Collected) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tid\tparent\tname\tstart_ns\tend_ns")?;
    for tracer in &collected.tracers {
        for (id, s) in tracer.raw.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                tracer.thread, id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
