//! Positive dataflow-pass fixture: every function below plants exactly
//! one defect the parser → CFG → dataflow pipeline must flag. The tests
//! assert exact `line:col` spans, so the layout here is load-bearing —
//! do not reflow.

pub fn leaks_on_error_path() -> io::Result<()> {
    let ep = sys::epoll_create1()?;
    let fd = sys::socket()?;
    sys::close(ep);
    sys::close(fd);
    Ok(())
}

pub fn closes_twice() -> io::Result<()> {
    let fd = sys::socket()?;
    sys::close(fd);
    sys::close(fd);
    Ok(())
}

pub fn peeks_without_justification(buf: &[u8]) -> u8 {
    let p = buf.as_ptr();
    unsafe { *p }
}

pub fn holds_guard_across_read(m: &Mutex<u32>, fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    let g = m.lock();
    let n = sys::read(fd, buf)?;
    drop(g);
    Ok(n)
}

pub fn waits_then_receives(m: &Mutex<u32>, cv: &Condvar, rx: &Receiver<u32>) -> u32 {
    let mut g = m.lock();
    while *g == 0 {
        g = cv.wait(g);
    }
    let n = rx.recv();
    *g + n
}
