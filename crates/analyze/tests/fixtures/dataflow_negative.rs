//! Negative dataflow-pass fixture: correct resource, lock, and unsafe
//! handling (a condvar wait included) the pipeline must stay silent on.
//! Analyzed under an allowlisted path (`crates/net/src/sys.rs`) so the
//! justified `unsafe` is in bounds.

pub fn closes_on_both_paths() -> io::Result<()> {
    let fd = sys::socket()?;
    match sys::accept4(fd) {
        Ok(c) => {
            sys::close(c);
        }
        Err(_) => {}
    }
    sys::close(fd);
    Ok(())
}

pub fn transfers_ownership() -> io::Result<Conn> {
    let fd = sys::socket()?;
    Ok(Conn::new(fd))
}

pub fn justified_unsafe(buf: &[u8]) -> u8 {
    let p = buf.as_ptr();
    // SAFETY: `p` points into `buf`, which the caller keeps alive for
    // the duration of this read.
    unsafe { *p }
}

pub fn drops_guard_before_read(m: &Mutex<u32>, fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    let g = m.lock();
    let v = *g;
    drop(g);
    let n = sys::read(fd, buf)?;
    Ok(n + v as usize)
}

pub fn scoped_guard_then_block(m: &Mutex<u32>, fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    {
        let g = m.lock();
        touch(&g);
    }
    sys::read(fd, buf)
}

pub fn waived_leak_is_silent() -> io::Result<i32> {
    // lint: allow(resource-leak) — the fd is inherited by a child exec
    // and closed by the kernel on its exit.
    let fd = sys::socket()?;
    register(fd);
    Ok(0)
}

pub fn waits_on_a_condvar(m: &Mutex<u32>, cv: &Condvar) -> u32 {
    let mut g = m.lock();
    while *g == 0 {
        g = cv.wait(g);
    }
    *g
}

pub fn halves_in_place(counters: &mut [u8], mut shift: u32) {
    for c in counters.iter_mut() {
        *c >>= 1;
    }
    shift <<= 1;
    shift >>= 2;
    touch(&shift);
}
