//! Negative dataflow-pass fixture: correct lock handling (a condvar
//! wait included) the pipeline must stay silent on.

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
