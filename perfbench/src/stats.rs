//! Sample statistics and output accounting shared by every workload.

use bliss_serve::{FrameRecord, SessionTrace};

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it, and the value there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, `100 * (n - 10) / n`.
    pub percentile: f64,
    /// The sample at that percentile: the 11th largest.
    pub value: f64,
    /// Sample count the percentile was taken over.
    pub samples: usize,
}

/// The highest-percentile tail of `values` with at least ten samples
/// beyond it, or `None` when there are too few samples (fewer than 11) for
/// any percentile to have ten beyond it.
///
/// The percentile depends only on the sample count, so a workload whose
/// count is fixed by its virtual schedule always reports the same one.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// Frames a measured phase attempted and how many of them were not served
/// with a valid record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameTally {
    /// Frames the workload submitted.
    pub attempted: usize,
    /// Frames without a valid record: never served (a step error leaves
    /// every later frame unserved), out of order, or with a non-finite
    /// output.
    pub failed: usize,
}

impl FrameTally {
    /// Adds another phase's tally.
    pub fn add(&mut self, other: FrameTally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Whether a served record carries a usable output.
fn record_valid(r: &FrameRecord) -> bool {
    r.latency_s.is_finite()
        && r.latency_s >= 0.0
        && r.energy_j.is_finite()
        && r.gaze_prediction.horizontal_deg.is_finite()
        && r.gaze_prediction.vertical_deg.is_finite()
}

/// Tallies `expected` sessions — `(session id, frames submitted)` — against
/// the traces a run produced. A session's frames count as served only as a
/// gap-free, in-order prefix `0, 1, 2, …` of valid records; everything from
/// the first missing, misplaced or invalid record on counts as failed, as
/// does every frame of a session with no trace.
pub fn tally_frames(expected: &[(usize, usize)], traces: &[SessionTrace]) -> FrameTally {
    let mut tally = FrameTally::default();
    for &(id, frames) in expected {
        tally.attempted += frames;
        let served = traces.iter().find(|t| t.config.id == id).map_or(0, |t| {
            t.records
                .iter()
                .take(frames)
                .enumerate()
                .take_while(|&(i, r)| r.index == i && record_valid(r))
                .count()
        });
        tally.failed += frames - served;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use bliss_eye::{Gaze, Scenario};
    use bliss_serve::SessionConfig;

    fn record(index: usize) -> FrameRecord {
        let gaze = Gaze {
            horizontal_deg: 1.0,
            vertical_deg: -2.0,
        };
        FrameRecord {
            index,
            arrival_s: 0.0,
            completion_s: 0.01,
            latency_s: 0.01,
            deadline_missed: false,
            batch_size: 1,
            gaze_prediction: gaze,
            gaze_truth: gaze,
            horizontal_error_deg: 0.0,
            vertical_error_deg: 0.0,
            sampled_pixels: 10,
            roi_pixels: 100,
            tokens: 4,
            mipi_bytes: 20,
            energy_j: 1e-6,
            shed: false,
        }
    }

    fn trace(id: usize, indices: &[usize]) -> SessionTrace {
        SessionTrace {
            config: SessionConfig {
                id,
                scenario: Scenario::for_index(id),
                seed: id as u64,
                frames: indices.len(),
                start_offset_s: 0.0,
            },
            records: indices.iter().map(|&i| record(i)).collect(),
        }
    }

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_depends_only_on_the_count() {
        let a: Vec<f64> = (0..1200).map(|i| (i * 7919 % 1200) as f64).collect();
        let b: Vec<f64> = (0..1200).map(|i| i as f64 * 0.5).collect();
        let (ta, tb) = (tail(&a).unwrap(), tail(&b).unwrap());
        assert_eq!(ta.percentile, tb.percentile);
        assert!((ta.percentile - 99.166_666).abs() < 1e-3);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn complete_traces_fail_nothing() {
        let traces = vec![trace(0, &[0, 1, 2]), trace(1, &[0, 1, 2])];
        let t = tally_frames(&[(0, 3), (1, 3)], &traces);
        assert_eq!(
            t,
            FrameTally {
                attempted: 6,
                failed: 0
            }
        );
        assert_eq!(t.failed_frac(), 0.0);
    }

    #[test]
    fn a_step_error_counts_every_frame_it_left_unserved() {
        // Session 0 stopped after two of five frames; session 1 never ran.
        let traces = vec![trace(0, &[0, 1])];
        let t = tally_frames(&[(0, 5), (1, 5)], &traces);
        assert_eq!(
            t,
            FrameTally {
                attempted: 10,
                failed: 8
            }
        );
        assert_eq!(t.failed_frac(), 0.8);
    }

    #[test]
    fn gaps_reordering_and_invalid_outputs_fail_the_rest_of_the_session() {
        let gap = trace(0, &[0, 2, 3]);
        assert_eq!(tally_frames(&[(0, 3)], &[gap]).failed, 2);
        let swapped = trace(0, &[1, 0, 2]);
        assert_eq!(tally_frames(&[(0, 3)], &[swapped]).failed, 3);
        let mut nan = trace(0, &[0, 1, 2]);
        nan.records[1].latency_s = f64::NAN;
        assert_eq!(tally_frames(&[(0, 3)], &[nan]).failed, 2);
    }

    #[test]
    fn an_empty_phase_counts_as_all_failed() {
        assert_eq!(FrameTally::default().failed_frac(), 1.0);
    }
}
