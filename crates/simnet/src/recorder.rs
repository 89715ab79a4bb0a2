//! The sampled series of a simulation run.

use ecp_control::{PathRates, Sample};
use serde::{
    Deserialize, FromValue, JsonReader, JsonWriter, Map, Serialize, Serializer, Slot, Value,
};

/// One compact campaign-observatory timeline point (`metrics.timeseries`):
/// the scalar signals the paper's figures plot, without the per-path
/// detail of a [`Series`] row. Serialized one-object-per-line into
/// `timeseries/<hash>.jsonl` sidecars by the campaign store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeseriesPoint {
    /// Simulation time (seconds).
    pub t: f64,
    /// Delivered fraction of the offered traffic (1.0 when nothing is
    /// offered).
    pub delivered_fraction: f64,
    /// Power as a fraction of the fully-on network.
    pub power_frac: f64,
    /// Maximum arc utilization over capacity-bearing arcs.
    pub max_util: f64,
    /// Arcs above the TE overload threshold.
    pub overloaded_arcs: u32,
    /// Cumulative TE reconfigurations (share-change applications) since
    /// t = 0.
    pub reconfig_count: u64,
}

/// Every sample of one run, one row per sampler tick in time order.
///
/// A row holds the scalar readings ([`Sample`]) and the delivered rate
/// on every installed path of every flow (the Fig. 7 per-path series).
/// The per-path rates of all rows live in one flat arena, flow after
/// flow; `flow_ends[f]` is where flow `f`'s paths end within a row. A
/// flow added mid-run appends its columns, so later rows are wider.
///
/// Serializes as the nested per-row list
/// `[{t, power_w, power_frac, offered_total, delivered_total,
/// per_flow_path_rates: [[..], ..]}, ..]` and parses back from it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    samples: Vec<Sample>,
    /// Per row: how many flows it covers.
    row_flows: Vec<u32>,
    /// Every row's per-path delivered rates, row after row.
    rates: Vec<f64>,
    /// Per flow: the column after its last path.
    flow_ends: Vec<u32>,
}

impl Series {
    /// The scalar readings of every row, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Every row in time order: its scalar readings and per-path rates.
    pub fn rows(&self) -> impl Iterator<Item = (&Sample, PathRates<'_>)> + '_ {
        let mut start = 0;
        let rows = self.samples.iter().zip(&self.row_flows);
        rows.map(move |(s, &flows)| {
            let ends = &self.flow_ends[..flows as usize];
            let width = ends.last().map_or(0, |&end| end as usize);
            let rates = &self.rates[start..start + width];
            start += width;
            (s, PathRates { rates, ends })
        })
    }

    /// Mean power fraction over the rows (1.0 when there are none).
    pub fn mean_power_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.iter().map(|s| s.power_frac).sum::<f64>() / self.samples.len() as f64
    }

    /// Register a new flow with `paths` installed paths: the rows taken
    /// from now on carry its columns.
    pub(crate) fn add_flow(&mut self, paths: usize) {
        let end = self.flow_ends.last().map_or(0, |&end| end);
        self.flow_ends.push(end + paths as u32);
    }

    /// Append one per-path rate to the row being taken.
    pub(crate) fn push_rate(&mut self, r: f64) {
        self.rates.push(r);
    }

    /// Close the row whose rates were just pushed: one per column of
    /// every flow registered so far, in flow order.
    pub(crate) fn end_row(&mut self, sample: Sample) {
        self.row_flows.push(self.flow_ends.len() as u32);
        self.samples.push(sample);
    }
}

/// The key of a row's per-path rates, next to its [`Sample`] fields.
const RATES: &str = "per_flow_path_rates";

/// A row's [`Sample`] fields as an object.
fn sample_fields(s: &Sample) -> Map {
    let Value::Object(fields) = serde::to_value(s) else {
        unreachable!("a struct serializes to an object")
    };
    fields
}

impl Serialize for Series {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let rows = self.rows().map(|(s, rates)| {
            let mut row = sample_fields(s);
            let flows = rates.iter().map(serde::to_value).collect();
            row.insert(RATES.into(), Value::Array(flows));
            Value::Object(row)
        });
        serializer.collect_value(Value::Array(rows.collect()))
    }

    /// The same JSON with the rates, the bulk of a series, written
    /// straight from the arena: only each row's few [`Sample`] fields
    /// go through a tree.
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_array();
        for (s, rates) in self.rows() {
            let mut row = sample_fields(s);
            // A placeholder that puts the rates at their key's place.
            row.insert(RATES.into(), Value::Null);
            w.element();
            w.begin_object();
            for (k, v) in &row {
                w.key(k);
                if k == RATES {
                    w.begin_array();
                    for flow in rates.iter() {
                        w.element();
                        flow.write_json(w);
                    }
                    w.end_array();
                } else {
                    w.value(v);
                }
            }
            w.end_object();
        }
        w.end_array();
    }
}

impl Series {
    /// Close a row read back from JSON: its flows' path counts must
    /// match the earlier rows', and later rows may add flows.
    fn end_read_row(&mut self, sample: Sample, ends: &[u32]) -> Result<(), String> {
        for (f, &end) in ends.iter().enumerate() {
            match self.flow_ends.get(f) {
                None => self.flow_ends.push(end),
                Some(&known) if known == end => {}
                Some(_) => return Err(format!("flow {f} changes its path count")),
            }
        }
        self.row_flows.push(ends.len() as u32);
        self.samples.push(sample);
        Ok(())
    }
}

impl FromValue for Series {
    fn from_value(value: Value) -> Result<Self, String> {
        let mut series = Series::default();
        for mut row in Vec::<Map>::from_value(value)? {
            let flows: Vec<Vec<f64>> = serde::from_value_field(&mut row, RATES)?;
            let sample = Sample::from_value(Value::Object(row))?;
            let mut end = 0;
            let ends: Vec<u32> = flows
                .iter()
                .map(|paths| {
                    end += paths.len() as u32;
                    end
                })
                .collect();
            series.rates.extend(flows.into_iter().flatten());
            series.end_read_row(sample, &ends)?;
        }
        Ok(series)
    }

    /// The same series read from the text: each row's rates go straight
    /// onto the arena, and only its few [`Sample`] fields go through a
    /// tree, as `write_json` writes them.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, String> {
        if !r.begin_array()? {
            return Err(format!("expected array, got {}", r.value()?.kind()));
        }
        let mut series = Series::default();
        while r.next_element()? {
            if !r.begin_object()? {
                return Err(format!("expected object, got {}", r.value()?.kind()));
            }
            let start = series.rates.len();
            let mut ends = Slot::new();
            let mut row = Map::new();
            while let Some(key) = r.next_key()? {
                if key == RATES {
                    // A repeated key replaces the rates read before it.
                    series.rates.truncate(start);
                    r.read_member(&mut ends, |r| read_rates(r, &mut series.rates, start))?;
                } else {
                    row.insert(key.into_owned(), r.value()?);
                }
            }
            let ends: Vec<u32> = ends.field(RATES)?;
            let sample = Sample::from_value(Value::Object(row))?;
            series.end_read_row(sample, &ends)?;
        }
        Ok(series)
    }
}

/// Read one row's `[[rate, ..], ..]` onto the arena, whose row starts
/// at `start`; return each flow's end column.
fn read_rates(
    r: &mut JsonReader<'_>,
    rates: &mut Vec<f64>,
    start: usize,
) -> Result<Vec<u32>, String> {
    let not_array =
        |r: &mut JsonReader<'_>| Err(format!("expected array, got {}", r.value()?.kind()));
    if !r.begin_array()? {
        return not_array(r);
    }
    let mut ends = Vec::new();
    while r.next_element()? {
        if !r.begin_array()? {
            return not_array(r);
        }
        while r.next_element()? {
            rates.push(f64::read_json(r)?);
        }
        ends.push((rates.len() - start) as u32);
    }
    Ok(ends)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, frac: f64, delivered: f64) -> Sample {
        Sample {
            t,
            power_w: frac * 100.0,
            power_frac: frac,
            offered_total: delivered,
            delivered_total: delivered,
        }
    }

    /// Push one row with the given per-flow rates.
    fn push(series: &mut Series, s: Sample, flows: &[&[f64]]) {
        for rates in flows {
            for &r in *rates {
                series.push_rate(r);
            }
        }
        series.end_row(s);
    }

    #[test]
    fn series_extraction() {
        let mut series = Series::default();
        series.add_flow(2);
        push(&mut series, sample(0.0, 0.5, 1e6), &[&[1e6, 0.0]]);
        series.add_flow(1);
        push(&mut series, sample(1.0, 0.7, 2e6), &[&[1.5e6, 0.0], &[5e5]]);
        let rows: Vec<_> = series.rows().collect();
        assert_eq!(rows.len(), 2);
        let (s, first) = rows[0];
        assert_eq!((s.t, s.power_frac), (0.0, 0.5));
        assert_eq!(first.ends, &[2], "the row before the join has one flow");
        assert_eq!(first.flow(0), &[1e6, 0.0]);
        let (s, second) = rows[1];
        assert_eq!((s.t, s.delivered_total), (1.0, 2e6));
        assert_eq!(
            second.iter().collect::<Vec<_>>(),
            [&[1.5e6, 0.0][..], &[5e5]]
        );
        // Serialization nests the rows per flow, streams the bytes of
        // the printed tree in both layouts, and parses back.
        let json = serde_json::to_string(&series).unwrap();
        assert!(json.contains("\"per_flow_path_rates\":[[1500000.0,0.0],[500000.0]]"));
        let tree = serde::to_value(&series);
        let (mut compact, mut pretty) = (String::new(), String::new());
        JsonWriter::compact(&mut compact).value(&tree);
        JsonWriter::pretty(&mut pretty).value(&tree);
        assert_eq!(json, compact);
        assert_eq!(serde_json::to_string_pretty(&series).unwrap(), pretty);
        let parse = |json: &str| Series::from_value(serde_json::from_str(json).unwrap());
        assert_eq!(parse(&json), Ok(series));
        let clash = json.replace("[[1500000.0,0.0],[500000.0]]", "[[1500000.0],[500000.0]]");
        assert!(
            parse(&clash).is_err(),
            "a flow cannot change its path count"
        );
    }

    #[test]
    fn mean_and_first_time() {
        let mut series = Series::default();
        assert_eq!(series.mean_power_fraction(), 1.0);
        series.add_flow(1);
        push(&mut series, sample(0.0, 0.4, 0.0), &[&[0.0]]);
        push(&mut series, sample(1.0, 0.6, 5e6), &[&[5e6]]);
        assert!((series.mean_power_fraction() - 0.5).abs() < 1e-12);
        let first =
            |pred: fn(&Sample) -> bool| series.samples().iter().find(|s| pred(s)).map(|s| s.t);
        assert_eq!(first(|s| s.delivered_total > 1e6), Some(1.0));
        assert_eq!(first(|s| s.power_frac > 0.9), None);
    }
}
