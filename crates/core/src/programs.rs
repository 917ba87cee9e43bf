//! Micro-op program emitters for the allocator's code paths.
//!
//! Each function emits the µop sequence of one fast-path component —
//! mirroring the ~40-instruction TCMalloc fast path the paper dissects in
//! §3.3 — into the out-of-order engine, wiring true data dependencies:
//!
//! * size-class computation: add + shift to form the class index, a
//!   bounds branch, then the two dependent table loads of Figure 5;
//! * sampling: load/decrement/branch/store on the byte counter;
//! * free-list pop/push: the dependent load chain of Figure 7
//!   (`head = *list; next = *head`), whose load misses are what the malloc
//!   cache isolates;
//! * the always-present remainder: call overhead, free-list addressing and
//!   metadata updates (§3.3 "Remaining instructions" — deliberately *not*
//!   accelerated, to keep the accelerator allocator-agnostic);
//! * the slow paths: central-list batch refill, span carving, OS growth,
//!   and the page-map walk of an unsized free.

use mallacc_cache::Addr;
use mallacc_ooo::{Engine, Reg, Uop};
use mallacc_tcmalloc::{layout, Populate};

/// Cost, in ALU-µop latency, of the modelled `sbrk`/`mmap` system call when
/// the page heap grows (the paper's slowest Figure 1 peak).
pub const OS_GROW_LATENCY: u32 = 8000;

/// Number of µops of function-call overhead on entry (push regs, frame).
pub const PROLOGUE_UOPS: usize = 6;
/// Number of µops of function-call overhead on exit.
pub const EPILOGUE_UOPS: usize = 7;

/// Emits the PMU sampling interrupt taken when the dedicated allocation
/// counter (§4.2) crosses its threshold: pipeline flush plus the
/// perf_events handler's sample record. Rare (once per sampling interval),
/// so modelled as one dependent burst.
pub fn emit_pmu_sample_interrupt(cpu: &mut Engine) {
    // The interrupt flushes the pipeline like a mispredicted branch...
    let d = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(d), &[]));
    cpu.push(Uop::branch(true, &[d]));
    // ...and the handler walks state and writes the sample record.
    let mut dep = d;
    for i in 0..32u64 {
        let r = cpu.alloc_reg();
        if i % 4 == 3 {
            cpu.push(Uop::store(layout::sampler_counter() + 512 + i * 8, &[dep]));
        } else {
            cpu.push(Uop::alu(1, Some(r), &[dep]));
            dep = r;
        }
    }
}

/// Emits the thread-cache lookup: the TLS-relative load of the per-thread
/// cache pointer plus its null check (every call does this before touching
/// a free list). Returns the thread-cache base register.
pub fn emit_tls_cache_ptr(cpu: &mut Engine, dep: Reg) -> Reg {
    let tc = cpu.alloc_reg();
    cpu.push(Uop::load(layout::TLS_BASE, tc, &[dep]));
    cpu.push(Uop::branch(false, &[tc]));
    tc
}

/// Emits `n` independent single-cycle ALU µops (call overhead, register
/// shuffling).
pub fn emit_overhead(cpu: &mut Engine, n: usize) {
    for _ in 0..n {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(1, Some(d), &[]));
    }
}

/// Emits a call's prologue: `n` overhead µops, then the µop producing the
/// argument register (the requested size or the freed pointer), which it
/// returns.
pub fn emit_prologue(cpu: &mut Engine, n: usize) -> Reg {
    emit_overhead(cpu, n);
    let arg = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(arg), &[]));
    arg
}

/// Emits the `mmap`/`sbrk` system call, modelled as one long-latency op,
/// when the heap `grew`.
pub fn emit_os_growth(cpu: &mut Engine, grew: bool) {
    if grew {
        let d = cpu.alloc_reg();
        cpu.push(Uop::alu(OS_GROW_LATENCY, Some(d), &[]));
    }
}

/// Emits the software size-class computation for a small malloc:
/// index arithmetic, the small/large bounds branch, and the two dependent
/// array loads. Returns `(class_reg, alloc_size_reg)`.
pub fn emit_size_class_sw(
    cpu: &mut Engine,
    size_reg: Reg,
    class_index: u64,
    class_id: u16,
) -> (Reg, Reg) {
    // class_index = (size + K) >> S
    let t0 = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(t0), &[size_reg]));
    let idx = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(idx), &[t0]));
    // if (size <= 1024) — well predicted.
    cpu.push(Uop::branch(false, &[size_reg]));
    // cls = class_array[idx]
    let cls = cpu.alloc_reg();
    cpu.push(Uop::load(
        layout::class_array_entry(class_index),
        cls,
        &[idx],
    ));
    // alloc_size = size_table[cls]
    let sz = cpu.alloc_reg();
    let cls_id = mallacc_tcmalloc::ClassId::from_raw(class_id as u8);
    cpu.push(Uop::load(layout::size_table_entry(cls_id), sz, &[cls]));
    (cls, sz)
}

/// Emits the page-map radix walk an unsized `free()` performs to find the
/// size class: dependent loads (three in TCMalloc) that the paper notes
/// cache poorly. Returns the class register.
pub fn emit_pagemap_walk<const N: usize>(cpu: &mut Engine, nodes: [Addr; N], ptr_reg: Reg) -> Reg {
    let mut dep = ptr_reg;
    for addr in nodes {
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(addr, d, &[dep]));
        dep = d;
    }
    dep
}

/// Emits the sampling check: load the byte counter at `counter`, subtract
/// the rounded size, branch on the threshold, store back. The branch
/// mispredicts on the (rare) sampled calls.
pub fn emit_sampling_sw(cpu: &mut Engine, counter: Addr, alloc_size_reg: Reg, sampled: bool) {
    let cnt = cpu.alloc_reg();
    cpu.push(Uop::load(counter, cnt, &[]));
    let dec = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(dec), &[cnt, alloc_size_reg]));
    cpu.push(Uop::branch(sampled, &[dec]));
    cpu.push(Uop::store(counter, &[dec]));
    if sampled {
        // Stack-trace capture on the sampled path: a burst of dependent
        // work (unwinder walks + stores), rare but expensive.
        let mut dep = dec;
        for i in 0..48 {
            let d = cpu.alloc_reg();
            if i % 3 == 2 {
                cpu.push(Uop::store(counter + 64 + i, &[dep]));
            } else {
                cpu.push(Uop::alu(1, Some(d), &[dep]));
                dep = d;
            }
        }
    }
}

/// Emits the thread-cache free-list address computation (TLS base + class ×
/// stride). Returns the list-address register.
pub fn emit_list_addr(cpu: &mut Engine, cls_reg: Reg) -> Reg {
    let tc = emit_tls_cache_ptr(cpu, cls_reg);
    let t = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(t), &[cls_reg]));
    let la = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(la), &[t, tc]));
    la
}

/// Emits the software pop of Figure 7: load the head, empty-check branch,
/// load the head's `next` from inside the block, store the new head.
/// Returns the register holding the returned block.
pub fn emit_pop_sw(cpu: &mut Engine, list_header: Addr, block: Addr, la_reg: Reg) -> Reg {
    let head = cpu.alloc_reg();
    cpu.push(Uop::load(list_header, head, &[la_reg]));
    cpu.push(Uop::branch(false, &[head]));
    let next = cpu.alloc_reg();
    cpu.push(Uop::load(block, next, &[head]));
    cpu.push(Uop::store(list_header, &[next, la_reg]));
    head
}

/// Emits the software push of Figure 7: load the old head, store it as the
/// freed block's `next`, store the block as the new head.
pub fn emit_push_sw(cpu: &mut Engine, list_header: Addr, block: Addr, la_reg: Reg, ptr_reg: Reg) {
    let old = cpu.alloc_reg();
    cpu.push(Uop::load(list_header, old, &[la_reg]));
    cpu.push(Uop::store(block, &[old, ptr_reg]));
    cpu.push(Uop::store(list_header, &[ptr_reg, la_reg]));
}

/// Emits the free-list metadata update (length, total size — §3.3's
/// "updates to metadata fields", always executed in software).
pub fn emit_metadata(cpu: &mut Engine, list_header: Addr, la_reg: Reg) {
    let meta = list_header + 8;
    // Free-list length.
    let len = cpu.alloc_reg();
    cpu.push(Uop::load(meta, len, &[la_reg]));
    let len2 = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(len2), &[len]));
    cpu.push(Uop::store(meta, &[len2]));
    // Thread-cache total size.
    let tot = cpu.alloc_reg();
    cpu.push(Uop::load(layout::thread_cache_meta(), tot, &[]));
    let tot2 = cpu.alloc_reg();
    cpu.push(Uop::alu(1, Some(tot2), &[tot]));
    cpu.push(Uop::store(layout::thread_cache_meta(), &[tot2]));
}

/// Emits the central-free-list batch refill: lock acquisition, the
/// dependent pointer-chase through the batch, the linking stores that build
/// the thread-cache list, and the unlock. Slow-path only.
pub fn emit_refill(cpu: &mut Engine, central_header: Addr, list_header: Addr, batch: &[Addr]) {
    // Lock: load-test-store on the central header (contended line).
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(central_header, lock, &[]));
    cpu.push(Uop::branch(false, &[lock]));
    cpu.push(Uop::store(central_header, &[lock]));
    // Walk the central list: each object's next pointer lives in the
    // object, so the traversal is a dependent load chain.
    let mut dep = lock;
    for &obj in batch {
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(obj, d, &[dep]));
        dep = d;
        // Link it into the thread-cache list.
        cpu.push(Uop::store(obj, &[d]));
    }
    // Publish the new head and drop the lock.
    cpu.push(Uop::store(list_header, &[dep]));
    cpu.push(Uop::store(central_header, &[lock]));
}

/// Emits a span populate: page-heap bookkeeping, page-map registration
/// stores, and the carving loop that threads a free list through the new
/// span (one linking store per object).
pub fn emit_populate(cpu: &mut Engine, p: &Populate) {
    emit_os_growth(cpu, p.span.grew_heap);
    // Span metadata + page map registration.
    let meta = cpu.alloc_reg();
    cpu.push(Uop::load(layout::span_meta(p.span.id), meta, &[]));
    for page in p.span.start_page..p.span.start_page + p.span.pages {
        let nodes = layout::pagemap_node_addrs(page);
        cpu.push(Uop::store(nodes[2], &[meta]));
    }
    // Carve the span: write each object's next pointer.
    let mut dep = meta;
    for i in 0..p.object_count {
        let addr = p.first_object + i * p.object_size;
        cpu.push(Uop::store(addr, &[dep]));
        if i % 8 == 7 {
            // Occasional loop-control dependency.
            let d = cpu.alloc_reg();
            cpu.push(Uop::alu(1, Some(d), &[dep]));
            dep = d;
        }
    }
}

/// Emits the release of an overflowing thread-cache list back to the
/// central list: a dependent pop chain plus the central insert.
pub fn emit_release(cpu: &mut Engine, central_header: Addr, list_header: Addr, moved: &[Addr]) {
    let mut dep = cpu.alloc_reg();
    cpu.push(Uop::load(list_header, dep, &[]));
    for &obj in moved {
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(obj, d, &[dep]));
        dep = d;
    }
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(central_header, lock, &[]));
    cpu.push(Uop::store(central_header, &[dep, lock]));
    cpu.push(Uop::store(list_header, &[dep]));
}

/// Emits the page-heap work of a large (> 256 KiB) allocation or free:
/// free-list search, span split bookkeeping and page-map updates.
pub fn emit_large_path(cpu: &mut Engine, pages: u64, grew_heap: bool, start_page: u64) {
    let lock = cpu.alloc_reg();
    cpu.push(Uop::load(layout::SPAN_META_BASE, lock, &[]));
    emit_os_growth(cpu, grew_heap);
    // Free-list search: a short dependent chase.
    let mut dep = lock;
    for i in 0..6 {
        let d = cpu.alloc_reg();
        cpu.push(Uop::load(layout::SPAN_META_BASE + 64 * (i + 1), d, &[dep]));
        dep = d;
    }
    // Register the first and last pages (+ a store per 16 pages of the
    // span, approximating the radix-leaf fills).
    for page in (start_page..start_page + pages).step_by(16) {
        let nodes = layout::pagemap_node_addrs(page);
        cpu.push(Uop::store(nodes[2], &[dep]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallacc_cache::Hierarchy;
    use mallacc_ooo::CoreConfig;

    fn cpu() -> Engine {
        Engine::new(CoreConfig::haswell(), Hierarchy::default())
    }

    #[test]
    fn size_class_chain_is_two_loads_deep() {
        let mut c = cpu();
        // Warm the tables.
        c.mem_mut().warm(layout::class_array_entry(10));
        let sc = mallacc_tcmalloc::SizeClasses::tcmalloc_2007();
        let cls = sc.size_class(64).unwrap();
        c.mem_mut().warm(layout::size_table_entry(cls));
        let size_reg = c.alloc_reg();
        let start = c.now();
        let (_, sz) = emit_size_class_sw(&mut c, size_reg, 10, u16::from(cls.as_u8()));
        let d = c.alloc_reg();
        let t = c.push(Uop::alu(1, Some(d), &[sz]));
        // 2 ALU + 2 dependent L1 loads ≈ 10+ cycles of dataflow.
        assert!(t.complete - start >= 10, "chain too short: {}", t.complete);
    }

    #[test]
    fn pop_chain_depends_on_two_loads() {
        let mut c = cpu();
        c.mem_mut().warm(0x9000);
        c.mem_mut().warm(0x9940);
        let la = c.alloc_reg();
        let head = emit_pop_sw(&mut c, 0x9000, 0x9940, la);
        let d = c.alloc_reg();
        let t = c.push(Uop::alu(1, Some(d), &[head]));
        assert!(t.complete >= 8);
    }

    #[test]
    fn sampled_call_is_much_longer() {
        let mut a = cpu();
        let ra = a.alloc_reg();
        emit_sampling_sw(&mut a, layout::sampler_counter(), ra, false);
        let end_plain = a.now();
        let mut b = cpu();
        let rb = b.alloc_reg();
        emit_sampling_sw(&mut b, layout::sampler_counter(), rb, true);
        let end_sampled = b.now();
        assert!(end_sampled > end_plain + 20);
    }

    #[test]
    fn refill_scales_with_batch_size() {
        let mut a = cpu();
        let batch_small: Vec<Addr> = (0..4u64).map(|i| 0xA0000 + i * 64).collect();
        emit_refill(&mut a, layout::CENTRAL_BASE, 0x9000, &batch_small);
        let small = a.now();
        let mut b = cpu();
        let batch_big: Vec<Addr> = (0..32u64).map(|i| 0xA0000 + i * 64).collect();
        emit_refill(&mut b, layout::CENTRAL_BASE, 0x9000, &batch_big);
        let big = b.now();
        assert!(
            big > small * 3,
            "32-object refill should dwarf 4-object one"
        );
    }

    #[test]
    fn os_growth_dominates_populate() {
        use mallacc_tcmalloc::PageHeap;
        let mut heap = PageHeap::new();
        let span = heap.allocate(1);
        let p = Populate {
            span,
            first_object: layout::page_addr(span.start_page),
            object_count: 128,
            object_size: 64,
        };
        let mut c = cpu();
        emit_populate(&mut c, &p);
        assert!(c.now() >= OS_GROW_LATENCY as u64);
    }

    #[test]
    fn pagemap_walk_is_serial() {
        let mut c = cpu();
        let ptr = c.alloc_reg();
        let nodes = layout::pagemap_node_addrs(42);
        let cls = emit_pagemap_walk(&mut c, nodes, ptr);
        let d = c.alloc_reg();
        let t = c.push(Uop::alu(1, Some(d), &[cls]));
        // Three cold loads in a chain: hundreds of cycles.
        assert!(t.complete > 300);
    }
}
