//! Table reproductions and ablation studies (experiments T1, T2, M1, M2,
//! A1–A3 of DESIGN.md).

use crate::{comparison, humanize};
use std::time::Duration;
use tpcds_core::runner::{self, metric, price_performance, AuxLevel, BenchmarkConfig, PriceModel};
use tpcds_core::schema::{Schema, SchemaStats};
use tpcds_core::Generator;

/// T1 — Table 1, schema statistics: computed from the schema definition
/// and compared to the paper's published numbers.
pub fn table1() -> String {
    let stats = SchemaStats::compute(&Schema::tpcds());
    comparison(
        "Table 1: Schema Statistics",
        &[
            (
                "fact tables".into(),
                "7".into(),
                stats.fact_tables.to_string(),
            ),
            (
                "dimension tables".into(),
                "17".into(),
                stats.dimension_tables.to_string(),
            ),
            (
                "columns (min)".into(),
                "3".into(),
                stats.min_columns.to_string(),
            ),
            (
                "columns (max)".into(),
                "34".into(),
                stats.max_columns.to_string(),
            ),
            (
                "columns (avg)".into(),
                "18".into(),
                stats.avg_columns.to_string(),
            ),
            (
                "foreign keys".into(),
                "104".into(),
                stats.foreign_keys.to_string(),
            ),
            (
                "row bytes (min)".into(),
                "16".into(),
                stats.min_row_bytes.to_string(),
            ),
            (
                "row bytes (max)".into(),
                "317".into(),
                stats.max_row_bytes.to_string(),
            ),
            (
                "row bytes (avg)".into(),
                "136".into(),
                stats.avg_row_bytes.to_string(),
            ),
        ],
    )
}

/// T2 — Table 2, table cardinalities at the paper's four scale factors,
/// evaluated from the scaling model.
pub fn table2() -> String {
    let schema = Schema::tpcds();
    let paper: &[(&str, [&str; 4])] = &[
        ("store_sales", ["288M", "2.9B", "30B", "297B"]),
        ("store_returns", ["14M", "147M", "1.5B", "15B"]),
        ("store", ["200", "500", "750", "1,500"]),
        ("customer", ["2M", "8M", "20M", "100M"]),
        ("item", ["200K", "300K", "400K", "500K"]),
    ];
    let mut rows = Vec::new();
    for (table, published) in paper {
        for (sf, label, pub_val) in [
            (100.0, "100GB", published[0]),
            (1000.0, "1TB", published[1]),
            (10_000.0, "10TB", published[2]),
            (100_000.0, "100TB", published[3]),
        ] {
            rows.push((
                format!("{table} @ {label}"),
                pub_val.to_string(),
                humanize(schema.rows(table, sf)),
            ));
        }
    }
    comparison("Table 2: Table Cardinalities", &rows)
}

/// M1 — a miniature benchmark run scored with the paper's QphDS@SF
/// formula, with every term reported.
pub fn metric_experiment(sf: f64, streams: usize, queries_per_stream: usize) -> String {
    let config = BenchmarkConfig {
        scale_factor: sf,
        seed: tpcds_core::types::rng::DEFAULT_SEED,
        streams: Some(streams),
        queries_per_stream: Some(queries_per_stream),
        aux: AuxLevel::Reporting,
        threads: None,
        via_server: false,
    };
    let result = runner::run_benchmark(config).expect("benchmark run");
    let mut out = format!(
        "### M1: QphDS@SF on a miniature run (SF {sf}, {streams} streams, {queries_per_stream} queries/stream)\n\n"
    );
    out.push_str(&format!("T_Load = {:?}\n", result.t_load));
    out.push_str(&format!("T_QR1  = {:?}\n", result.t_qr1));
    out.push_str(&format!("T_DM   = {:?}\n", result.t_dm));
    out.push_str(&format!("T_QR2  = {:?}\n", result.t_qr2));
    out.push_str(&format!(
        "queries executed = {} (2 runs x {} streams x {} queries)\n",
        2 * streams * queries_per_stream,
        streams,
        queries_per_stream
    ));
    out.push_str(&format!("QphDS@{sf} = {:.2}\n", result.qphds()));
    out.push_str(
        "\nThe formula is the paper's: SF * 3600 * (2*Q*S) / (T_QR1 + T_DM + T_QR2 + 0.01*S*T_Load)\n",
    );
    out
}

/// M2 — $/QphDS under the synthetic price model.
pub fn price_experiment(sf: f64, streams: usize, qphds: f64) -> String {
    let model = PriceModel::default();
    let pp = price_performance(&model, sf, streams, qphds);
    format!(
        "### M2: Price/performance\n\n3-year TCO (synthetic model) = ${:.0}\nQphDS@{sf} = {qphds:.2}\n$/QphDS@{sf} = {pp:.4}\n",
        model.tco(sf, streams)
    )
}

/// A1 — the power-vs-throughput metric ablation: the paper's argument
/// that a geometric-mean power metric rewards tuning a 6-second query as
/// much as a 6-hour one, while the arithmetic throughput metric follows
/// the business-relevant total time.
pub fn ablation_power() -> String {
    let hours = |h: f64| Duration::from_secs_f64(h * 3600.0);
    let secs = |s: f64| Duration::from_secs_f64(s);
    let base = vec![hours(6.0), secs(6.0)];
    let tuned_long = vec![hours(2.0), secs(6.0)];
    let tuned_short = vec![hours(6.0), secs(2.0)];

    let power = |q: &[Duration]| metric::power_metric(1.0, q);
    let throughput = |q: &[Duration]| {
        let total: f64 = q.iter().map(|d| d.as_secs_f64()).sum();
        2.0 * 3600.0 / total
    };

    // With n queries, a 3x single-query speedup moves the geometric mean
    // by 3^(1/n) — identically for the 6-hour and the 6-second query.
    // That equality is the paper's complaint; the throughput metric
    // instead follows total elapsed time.
    let mut out = comparison(
        "A1: power (geomean) vs throughput (arithmetic) metric — 6h->2h vs 6s->2s",
        &[
            (
                "power gain, tune 6h->2h".into(),
                "3^(1/n)".into(),
                format!("{:.3}x", power(&tuned_long) / power(&base)),
            ),
            (
                "power gain, tune 6s->2s".into(),
                "3^(1/n), identical".into(),
                format!("{:.3}x", power(&tuned_short) / power(&base)),
            ),
            (
                "throughput gain, tune 6h->2h".into(),
                "~3x".into(),
                format!("{:.2}x", throughput(&tuned_long) / throughput(&base)),
            ),
            (
                "throughput gain, tune 6s->2s".into(),
                "~1x".into(),
                format!("{:.4}x", throughput(&tuned_short) / throughput(&base)),
            ),
        ],
    );
    let equal =
        (power(&tuned_long) / power(&base) - power(&tuned_short) / power(&base)).abs() < 1e-9;
    out.push_str(&format!(
        "
power metric treats both tunings identically: {equal}
         (the paper's §5.3 argument for dropping the power test)
"
    ));
    out
}

/// A2 — auxiliary-structure ablation: run the same miniature benchmark
/// with and without the reporting part's summary table; report the load-time
/// cost and the query-run effect (the trade the 1%·S load term prices).
pub fn ablation_aux(sf: f64, streams: usize, queries_per_stream: usize) -> String {
    let run = |aux: AuxLevel| {
        runner::run_benchmark(BenchmarkConfig {
            scale_factor: sf,
            seed: tpcds_core::types::rng::DEFAULT_SEED,
            streams: Some(streams),
            queries_per_stream: Some(queries_per_stream),
            aux,
            threads: None,
            via_server: false,
        })
        .expect("benchmark run")
    };
    let without = run(AuxLevel::None);
    let with = run(AuxLevel::Reporting);
    let mut out = String::from("### A2: auxiliary structures on the reporting part\n\n");
    out.push_str(&format!(
        "{:<28} {:>14} {:>14}\n",
        "quantity", "no aux", "reporting aux"
    ));
    out.push_str(&format!(
        "{:<28} {:>14} {:>14}\n",
        "load time",
        format!("{:?}", without.t_load),
        format!("{:?}", with.t_load)
    ));
    out.push_str(&format!(
        "{:<28} {:>14} {:>14}\n",
        "QR1 + QR2",
        format!("{:?}", without.t_qr1 + without.t_qr2),
        format!("{:?}", with.t_qr1 + with.t_qr2)
    ));
    out.push_str(&format!(
        "{:<28} {:>14.2} {:>14.2}\n",
        "QphDS (load term included)",
        without.qphds(),
        with.qphds()
    ));
    out.push_str(
        "\nThe load-time term charges the cost of building auxiliary structures\nagainst the metric, as §5.3 argues it must.\n",
    );
    out
}

/// A3 — load-coefficient sensitivity: sweep the 0.01 factor of the metric
/// on fixed measured times.
pub fn ablation_load_coefficient(sf: f64, streams: usize, queries_per_stream: usize) -> String {
    let result = runner::run_benchmark(BenchmarkConfig {
        scale_factor: sf,
        seed: tpcds_core::types::rng::DEFAULT_SEED,
        streams: Some(streams),
        queries_per_stream: Some(queries_per_stream),
        aux: AuxLevel::Reporting,
        threads: None,
        via_server: false,
    })
    .expect("benchmark run");
    let inputs = result.metric_inputs();
    let mut out = String::from("### A3: load-time coefficient sensitivity\n\n");
    out.push_str("coefficient  QphDS     load share of denominator\n");
    for coeff in [0.0, 0.005, 0.01, 0.02, 0.05, 0.1] {
        let q = metric::qphds_with_load_coefficient(&inputs, coeff)
            .expect("measured run has positive elapsed time");
        let load = coeff * streams as f64 * inputs.t_load.as_secs_f64();
        let denom = inputs.t_qr1.as_secs_f64()
            + inputs.t_dm.as_secs_f64()
            + inputs.t_qr2.as_secs_f64()
            + load;
        out.push_str(&format!(
            "{coeff:>10.3}  {q:>9.1}  {:>6.1}%\n",
            100.0 * load / denom
        ));
    }
    out.push_str("\n0.01 keeps the load visible without letting it dominate (paper §5.3).\n");
    out
}

/// A4 — optimizer ablation: the same star-join query with and without the
/// greedy join-reordering / predicate-pushdown pass — the paper's §2.1
/// claim that the snowstorm schema "challenges the query optimizer".
///
/// Runs on a bounded synthetic star (the naive plan materializes the full
/// cross product, which on the real tables would be astronomically large —
/// itself the point of the experiment).
pub fn ablation_optimizer(fact_rows: usize) -> String {
    use tpcds_core::engine::{ColumnMeta, Database};
    use tpcds_core::types::{DataType, Value};
    let db = Database::new();
    let col = |n: &str| ColumnMeta {
        name: n.to_string(),
        dtype: DataType::Int,
    };
    db.create_table_with_rows(
        "fact",
        vec![col("f_d1"), col("f_d2"), col("f_v")],
        (0..fact_rows as i64)
            .map(|i| vec![Value::Int(i % 40), Value::Int(i % 25), Value::Int(i)])
            .collect(),
    )
    .expect("fact");
    db.create_table_with_rows(
        "dim1",
        vec![col("d1_id"), col("d1_attr")],
        (0..40)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect(),
    )
    .expect("dim1");
    db.create_table_with_rows(
        "dim2",
        vec![col("d2_id"), col("d2_attr")],
        (0..25)
            .map(|i| vec![Value::Int(i), Value::Int(i * 3)])
            .collect(),
    )
    .expect("dim2");
    let sql = "select d1_attr, sum(f_v) s
               from fact, dim1, dim2
               where f_d1 = d1_id and f_d2 = d2_id and d2_attr < 9
               group by d1_attr order by s desc limit 10";
    let naive_start = std::time::Instant::now();
    let r_naive = tpcds_core::engine::query_unoptimized(&db, sql).expect("naive run");
    let t_naive = naive_start.elapsed();
    let opt_start = std::time::Instant::now();
    let r_opt = tpcds_core::engine::query(&db, sql).expect("optimized run");
    let t_opt = opt_start.elapsed();
    assert_eq!(r_naive.rows, r_opt.rows, "plans disagree");
    let speedup = t_naive.as_secs_f64() / t_opt.as_secs_f64().max(1e-9);
    format!(
        "### A4: join-order optimizer ablation ({fact_rows}-row synthetic star)\n\n\
         naive left-deep cross-join plan: {t_naive:?}\n\
         optimized (pushdown + greedy join order): {t_opt:?}\n\
         speedup: {speedup:.0}x — identical answers ({} rows)\n\n\
         The cross product grows multiplicatively with each snowflake arm;\n\
         on the real 24-table schema a naive plan is not executable at all,\n\
         which is exactly the optimizer pressure §2.1 describes.\n",
        r_opt.rows.len()
    )
}

/// Measured flat-file row lengths at a virtual scale factor — the
/// empirical check behind Table 1's row-byte column.
pub fn measured_row_lengths(sf: f64) -> String {
    let g = Generator::new(sf);
    let schema = Schema::tpcds();
    let mut min = f64::MAX;
    let mut max: f64 = 0.0;
    let mut weighted = 0.0;
    let mut n = 0usize;
    let mut rows_out = Vec::new();
    for t in schema.tables() {
        let rows = g.generate_range(t.name, 0, g.row_count(t.name).min(500));
        let mut buf = Vec::new();
        tpcds_core::dgen::flatfile::write_rows(&mut buf, &rows).expect("write");
        let avg = buf.len() as f64 / rows.len().max(1) as f64;
        min = min.min(avg);
        max = max.max(avg);
        weighted += avg;
        n += 1;
        rows_out.push((
            t.name.to_string(),
            format!("{:.0}", t.est_row_bytes()),
            format!("{avg:.0}"),
        ));
    }
    let mut out = comparison(
        "Measured flat-file bytes/row (model vs generated)",
        &rows_out,
    );
    out.push_str(&format!(
        "\nmeasured min {:.0} / max {:.0} / avg {:.0}; paper: 16 / 317 / 136\n",
        min,
        max,
        weighted / n as f64
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_report_matches_paper_exactly_on_structure() {
        let t = table1();
        // The structural rows must agree exactly.
        for line in t.lines() {
            for (name, val) in [
                ("fact tables", "7"),
                ("dimension tables", "17"),
                ("foreign keys", "104"),
                ("columns (avg)", "18"),
            ] {
                if line.starts_with(name) {
                    let cols: Vec<&str> = line.split_whitespace().collect();
                    assert_eq!(cols[cols.len() - 2], val, "paper value for {name}");
                    assert_eq!(cols[cols.len() - 1], val, "our value for {name}");
                }
            }
        }
    }

    #[test]
    fn table2_report_contains_exact_reproductions() {
        let t = table2();
        assert!(t.contains("288M"), "{t}");
        assert!(t.contains("2.9B"));
        assert!(t.contains("100M"));
        assert!(t.contains("500K"));
    }

    #[test]
    fn optimizer_ablation_agrees_and_wins() {
        let report = ablation_optimizer(500);
        assert!(report.contains("identical answers"));
        // The naive plan materializes 500 x 40 x 25 rows; even in debug the
        // optimized plan must win clearly.
        let speedup: f64 = report
            .lines()
            .find(|l| l.starts_with("speedup:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.trim_end_matches('x').parse().ok())
            .expect("speedup line");
        assert!(speedup > 5.0, "{report}");
    }

    #[test]
    fn power_ablation_shows_equal_gains() {
        let a = ablation_power();
        assert!(a.contains("treats both tunings identically: true"), "{a}");
    }
}
