//! Minimal SVG line plots — figures as visual artifacts, no plotting
//! dependency.
//!
//! `figures` emits `results/figNN.svg` next to a figure's CSV:
//! log-scale y (incompleteness spans many decades, exactly like the
//! paper's figures), optional log-scale x, multiple labelled series.

/// A single curve.
#[derive(Debug, Clone)]
pub struct PlotSeries {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
}

/// Axis scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Base-10 logarithmic axis (non-positive values are clamped to the
    /// smallest positive value in the data, or 1e-12).
    Log,
}

/// Plot description.
#[derive(Debug, Clone)]
pub struct Plot {
    /// Title printed above the axes.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// X-axis scale.
    pub x_scale: Scale,
    /// Y-axis scale.
    pub y_scale: Scale,
    /// The curves.
    pub series: Vec<PlotSeries>,
}

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 50.0;
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

fn transform(v: f64, scale: Scale, floor: f64) -> f64 {
    match scale {
        Scale::Linear => v,
        Scale::Log => v.max(floor).log10(),
    }
}

impl Plot {
    /// Render the plot to an SVG string.
    ///
    /// Returns `None` when there is nothing to draw (no finite points).
    pub fn to_svg(&self) -> Option<String> {
        use std::fmt::Write as _;

        // smallest positive y for the log floor
        let floor = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .filter(|&y| y > 0.0)
            .fold(f64::INFINITY, f64::min);
        let floor = if floor.is_finite() {
            floor / 2.0
        } else {
            1e-12
        };
        let xfloor = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .filter(|&x| x > 0.0)
            .fold(f64::INFINITY, f64::min)
            .min(1.0);

        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter())
            .map(|&(x, y)| {
                (
                    transform(x, self.x_scale, xfloor),
                    transform(y, self.y_scale, floor),
                )
            })
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            return None;
        }
        let (mut x0, mut x1) = pts
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), p| {
                (a.min(p.0), b.max(p.0))
            });
        let (mut y0, mut y1) = pts
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), p| {
                (a.min(p.1), b.max(p.1))
            });
        if (x1 - x0).abs() < 1e-12 {
            x0 -= 0.5;
            x1 += 0.5;
        }
        if (y1 - y0).abs() < 1e-12 {
            y0 -= 0.5;
            y1 += 0.5;
        }
        let pad_y = (y1 - y0) * 0.05;
        y0 -= pad_y;
        y1 += pad_y;

        let px = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R);
        let py = |y: f64| HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * (HEIGHT - MARGIN_T - MARGIN_B);

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">"#
        );
        let _ = write!(
            svg,
            r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
        );
        let _ = write!(
            svg,
            r#"<text x="{}" y="22" text-anchor="middle" font-size="15">{}</text>"#,
            WIDTH / 2.0,
            xml_escape(&self.title)
        );
        // axes
        let _ = write!(
            svg,
            r#"<line x1="{l}" y1="{b}" x2="{r}" y2="{b}" stroke="black"/><line x1="{l}" y1="{t}" x2="{l}" y2="{b}" stroke="black"/>"#,
            l = MARGIN_L,
            r = WIDTH - MARGIN_R,
            t = MARGIN_T,
            b = HEIGHT - MARGIN_B
        );
        // ticks: 5 per axis
        for i in 0..=4 {
            let fx = x0 + (x1 - x0) * i as f64 / 4.0;
            let fy = y0 + (y1 - y0) * i as f64 / 4.0;
            let (lx, ly) = (px(fx), py(fy));
            let xv = match self.x_scale {
                Scale::Linear => format_tick(fx),
                Scale::Log => format!("1e{}", fx.round() as i64),
            };
            let yv = match self.y_scale {
                Scale::Linear => format_tick(fy),
                Scale::Log => format!("1e{}", fy.round() as i64),
            };
            let _ = write!(
                svg,
                r#"<line x1="{lx}" y1="{b}" x2="{lx}" y2="{b2}" stroke="black"/><text x="{lx}" y="{ty}" text-anchor="middle">{xv}</text>"#,
                b = HEIGHT - MARGIN_B,
                b2 = HEIGHT - MARGIN_B + 5.0,
                ty = HEIGHT - MARGIN_B + 18.0,
            );
            let _ = write!(
                svg,
                r#"<line x1="{l}" y1="{ly}" x2="{l2}" y2="{ly}" stroke="black"/><text x="{tx}" y="{typ}" text-anchor="end">{yv}</text>"#,
                l = MARGIN_L,
                l2 = MARGIN_L - 5.0,
                tx = MARGIN_L - 8.0,
                typ = ly + 4.0,
            );
        }
        // axis labels
        let _ = write!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
            (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
            HEIGHT - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
            (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
            (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
            xml_escape(&self.y_label)
        );
        // series
        for (si, s) in self.series.iter().enumerate() {
            let color = COLORS[si % COLORS.len()];
            let mut path = String::new();
            for (i, &(x, y)) in s.points.iter().enumerate() {
                let tx = transform(x, self.x_scale, xfloor);
                let ty = transform(y, self.y_scale, floor);
                let _ = write!(
                    path,
                    "{}{:.2},{:.2} ",
                    if i == 0 { "M" } else { "L" },
                    px(tx),
                    py(ty)
                );
            }
            let _ = write!(
                svg,
                r#"<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>"#
            );
            for &(x, y) in &s.points {
                let tx = transform(x, self.x_scale, xfloor);
                let ty = transform(y, self.y_scale, floor);
                let _ = write!(
                    svg,
                    r#"<circle cx="{:.2}" cy="{:.2}" r="3.5" fill="{color}"/>"#,
                    px(tx),
                    py(ty)
                );
            }
            // legend
            let ly = MARGIN_T + 8.0 + si as f64 * 18.0;
            let _ = write!(
                svg,
                r#"<rect x="{x}" y="{y}" width="14" height="4" fill="{color}"/><text x="{tx}" y="{ty}">{label}</text>"#,
                x = WIDTH - MARGIN_R - 170.0,
                y = ly,
                tx = WIDTH - MARGIN_R - 150.0,
                ty = ly + 6.0,
                label = xml_escape(&s.label)
            );
        }
        svg.push_str("</svg>");
        Some(svg)
    }

    /// Write the plot as `name` under the output directory.
    pub fn write(&self, name: &str) {
        if let Some(svg) = self.to_svg() {
            let path = crate::out_dir().join(name);
            match std::fs::write(&path, svg) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 1000.0 || (v.abs() < 0.01 && v != 0.0) {
        format!("{v:.1e}")
    } else if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plot() -> Plot {
        Plot {
            title: "test <plot>".into(),
            x_label: "N".into(),
            y_label: "incompleteness".into(),
            x_scale: Scale::Log,
            y_scale: Scale::Log,
            series: vec![
                PlotSeries {
                    label: "measured".into(),
                    points: vec![(200.0, 1e-2), (400.0, 1e-3), (800.0, 1e-4)],
                },
                PlotSeries {
                    label: "1/N".into(),
                    points: vec![(200.0, 5e-3), (400.0, 2.5e-3), (800.0, 1.25e-3)],
                },
            ],
        }
    }

    #[test]
    fn renders_valid_svg_skeleton() {
        let svg = plot().to_svg().expect("non-empty plot");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 2, "one path per series");
        assert_eq!(svg.matches("<circle").count(), 6, "one marker per point");
        assert!(svg.contains("test &lt;plot&gt;"), "title XML-escaped");
        assert!(svg.contains("incompleteness"));
    }

    #[test]
    fn zero_values_survive_log_scale() {
        let mut p = plot();
        p.series[0].points.push((1600.0, 0.0));
        let svg = p.to_svg().expect("plot renders");
        assert!(
            !svg.contains("NaN") && !svg.contains("inf"),
            "no NaN/inf coords"
        );
    }

    #[test]
    fn empty_plot_returns_none() {
        let p = Plot {
            title: "empty".into(),
            x_label: String::new(),
            y_label: String::new(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: vec![],
        };
        assert!(p.to_svg().is_none());
    }

    #[test]
    fn linear_scale_single_point() {
        let p = Plot {
            title: "one".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: vec![PlotSeries {
                label: "s".into(),
                points: vec![(1.0, 2.0)],
            }],
        };
        let svg = p.to_svg().expect("renders");
        assert!(svg.contains("<circle"));
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(format_tick(200.0), "200");
        assert_eq!(format_tick(0.25), "0.25");
        assert!(format_tick(12345.0).contains('e'));
        assert!(format_tick(0.0001).contains('e'));
        assert_eq!(format_tick(0.0), "0");
    }
}
