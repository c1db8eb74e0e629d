//! Negative fixture: virtual time only. The ban covers tests too: a test
//! that reads the wall clock says why in an `#[expect]`.

pub fn timed(clock: f64) -> f64 {
    clock + 1.5e-3
}

#[cfg(test)]
mod tests {
    #[test]
    fn virtual_time_advances() {
        assert!(super::timed(0.0) > 0.0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: the reading is compared with itself, never exported"
    )]
    fn a_documented_wall_clock_read() {
        let t0 = std::time::Instant::now();
        assert!(t0 <= std::time::Instant::now());
    }
}
