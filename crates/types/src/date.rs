//! Calendar dates and times of day.
//!
//! TPC-DS pivots on the `date_dim` dimension (covering 1900-01-01 through
//! 2099-12-31, 73 049 days) and the `time_dim` dimension (86 400 seconds).
//! We represent a date as the number of days since 1900-01-01 (day 0) in the
//! proleptic Gregorian calendar, mirroring dsdgen's Julian-day bookkeeping,
//! and a time as seconds since midnight.

use std::fmt;
use std::str::FromStr;

/// First day representable: 1900-01-01 (day number 0).
pub const EPOCH_YEAR: i32 = 1900;

/// Number of rows in `date_dim`: 1900-01-01 ..= 2099-12-31 inclusive.
pub const DATE_DIM_DAYS: i64 = 73_049;

/// dsdgen numbers dates with Julian day offsets; the spec's surrogate keys
/// for `date_dim` start at 2415022 + 1 (Julian day of 1900-01-01 is
/// 2415021). We keep the same bias so our `d_date_sk` values line up with
/// published TPC-DS data.
pub const JULIAN_BIAS: i64 = 2_415_022;

/// A calendar date, stored as days since 1900-01-01.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date(i32);

const DAYS_IN_MONTH: [i32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// True when `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in `month` (1-12) of `year`.
pub fn days_in_month(year: i32, month: u32) -> i32 {
    if month == 2 && is_leap_year(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Days from 1900-01-01 to 0000-03-01: the calendar arithmetic below
/// counts from a March 1st, so that February, with its leap day, ends
/// the year.
const MARCH_0000: i64 = 693_901;

/// Days from 1900-01-01 to `year-month-day`, in closed form: whole
/// 400-year eras (146,097 days each), then years of the era, then days of
/// the March-based year (H. Hinnant's `days_from_civil`).
fn days_from_civil(year: i64, month: i64, day: i64) -> i64 {
    let year = if month <= 2 { year - 1 } else { year };
    let era = year.div_euclid(400);
    let year_of_era = year - era * 400;
    let day_of_year = (153 * ((month + 9) % 12) + 2) / 5 + day - 1;
    let day_of_era = year_of_era * 365 + year_of_era / 4 - year_of_era / 100 + day_of_year;
    era * 146_097 + day_of_era - MARCH_0000
}

/// The inverse of [`days_from_civil`]: (year, month, day) of day `days`.
fn civil_from_days(days: i64) -> (i64, i64, i64) {
    let days = days + MARCH_0000;
    let era = days.div_euclid(146_097);
    let day_of_era = days - era * 146_097;
    let year_of_era =
        (day_of_era - day_of_era / 1_460 + day_of_era / 36_524 - day_of_era / 146_096) / 365;
    let day_of_year = day_of_era - (365 * year_of_era + year_of_era / 4 - year_of_era / 100);
    let march_month = (5 * day_of_year + 2) / 153;
    let day = day_of_year - (153 * march_month + 2) / 5 + 1;
    let month = if march_month < 10 {
        march_month + 3
    } else {
        march_month - 9
    };
    (year_of_era + era * 400 + i64::from(month <= 2), month, day)
}

impl Date {
    /// Builds a date from a day number (days since 1900-01-01).
    pub fn from_day_number(days: i32) -> Self {
        Date(days)
    }

    /// Days since 1900-01-01.
    pub fn day_number(&self) -> i32 {
        self.0
    }

    /// The `d_date_sk` surrogate key dsdgen would assign to this date.
    pub fn date_sk(&self) -> i64 {
        self.0 as i64 + JULIAN_BIAS
    }

    /// Inverse of [`Date::date_sk`].
    pub fn from_date_sk(sk: i64) -> Self {
        Date((sk - JULIAN_BIAS) as i32)
    }

    /// Builds a date from calendar components. Panics (debug) on invalid
    /// components; use [`Date::try_from_ymd`] for fallible construction.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Self {
        Self::try_from_ymd(year, month, day)
            .unwrap_or_else(|| panic!("invalid date {year:04}-{month:02}-{day:02}"))
    }

    /// Fallible calendar construction.
    pub fn try_from_ymd(year: i32, month: u32, day: u32) -> Option<Self> {
        if !(1..=12).contains(&month) || day < 1 {
            return None;
        }
        if day as i32 > days_in_month(year, month) {
            return None;
        }
        i32::try_from(days_from_civil(year.into(), month.into(), day.into()))
            .ok()
            .map(Date)
    }

    /// Decomposes into (year, month, day).
    pub fn ymd(&self) -> (i32, u32, u32) {
        let (year, month, day) = civil_from_days(self.0.into());
        (year as i32, month as u32, day as u32)
    }

    /// Calendar year.
    pub fn year(&self) -> i32 {
        self.ymd().0
    }

    /// Month of year, 1-12 (`d_moy`).
    pub fn month(&self) -> u32 {
        self.ymd().1
    }

    /// Day of month, 1-31 (`d_dom`).
    pub fn day(&self) -> u32 {
        self.ymd().2
    }

    /// Day of week, 0 = Sunday .. 6 = Saturday (1900-01-01 was a Monday).
    pub fn day_of_week(&self) -> u32 {
        ((self.0 % 7) + 7 + 1) as u32 % 7
    }

    /// Day of year, 1-based.
    pub fn day_of_year(&self) -> u32 {
        let (y, m, d) = self.ymd();
        let mut doy = d;
        for mm in 1..m {
            doy += days_in_month(y, mm) as u32;
        }
        doy
    }

    /// Quarter of year, 1-4 (`d_qoy`).
    pub fn quarter(&self) -> u32 {
        (self.month() - 1) / 3 + 1
    }

    /// ISO-8601-ish week sequence used for `d_week_seq`: weeks since the
    /// epoch, Sunday-based, week 1 containing 1900-01-01.
    pub fn week_seq(&self) -> i32 {
        // 1900-01-01 was a Monday, so the containing Sunday-based week
        // started on 1899-12-31 (day -1).
        (self.0 + 1).div_euclid(7) + 1
    }

    /// Adds (or subtracts) a number of days.
    pub fn add_days(&self, n: i32) -> Date {
        Date(self.0 + n)
    }

    /// Number of days from `other` to `self`.
    pub fn days_since(&self, other: &Date) -> i32 {
        self.0 - other.0
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Date({self})")
    }
}

/// Error returned by [`Date::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDateError(pub String);

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid date literal: {}", self.0)
    }
}
impl std::error::Error for ParseDateError {}

impl FromStr for Date {
    type Err = ParseDateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ParseDateError(s.to_string());
        let mut it = s.trim().splitn(3, '-');
        let y: i32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let m: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        Date::try_from_ymd(y, m, d).ok_or_else(bad)
    }
}

/// A time of day, stored as seconds since midnight (0..86_400).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u32);

impl Time {
    /// Builds from seconds since midnight; panics (debug) if out of range.
    pub fn from_seconds(s: u32) -> Self {
        debug_assert!(s < 86_400);
        Time(s)
    }

    /// Builds from hour/minute/second components.
    pub fn from_hms(h: u32, m: u32, s: u32) -> Self {
        debug_assert!(h < 24 && m < 60 && s < 60);
        Time(h * 3600 + m * 60 + s)
    }

    /// Seconds since midnight (`t_time_sk`).
    pub fn seconds(&self) -> u32 {
        self.0
    }

    /// Hour of day, 0-23.
    pub fn hour(&self) -> u32 {
        self.0 / 3600
    }

    /// Minute of hour, 0-59.
    pub fn minute(&self) -> u32 {
        self.0 / 60 % 60
    }

    /// Second of minute, 0-59.
    pub fn second(&self) -> u32 {
        self.0 % 60
    }

    /// TPC-DS shift name: AM/PM halves of the day for `t_am_pm`.
    pub fn am_pm(&self) -> &'static str {
        if self.hour() < 12 {
            "AM"
        } else {
            "PM"
        }
    }

    /// TPC-DS `t_shift`: three 8-hour shifts.
    pub fn shift(&self) -> &'static str {
        match self.hour() {
            0..=7 => "third",
            8..=15 => "first",
            _ => "second",
        }
    }

    /// TPC-DS `t_sub_shift` meal-oriented partition of the day.
    pub fn sub_shift(&self) -> &'static str {
        match self.hour() {
            6..=11 => "morning",
            12..=17 => "afternoon",
            18..=23 => "evening",
            _ => "night",
        }
    }

    /// TPC-DS `t_meal_time`; NULL outside meal windows (returns `None`).
    pub fn meal_time(&self) -> Option<&'static str> {
        match self.hour() {
            6..=8 => Some("breakfast"),
            11..=13 => Some("dinner"),
            17..=20 => Some("supper"),
            _ => None,
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02}:{:02}:{:02}",
            self.hour(),
            self.minute(),
            self.second()
        )
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn days_in_year(year: i32) -> i32 {
        if is_leap_year(year) {
            366
        } else {
            365
        }
    }

    /// The calendar by walking: year by year from 1900, then month by
    /// month — the oracle for the closed form.
    fn walked_ymd(days: i32) -> (i32, u32, u32) {
        let (mut days, mut year) = (days, EPOCH_YEAR);
        if days >= 0 {
            while days >= days_in_year(year) {
                days -= days_in_year(year);
                year += 1;
            }
        } else {
            while days < 0 {
                year -= 1;
                days += days_in_year(year);
            }
        }
        let mut month = 1u32;
        while days >= days_in_month(year, month) {
            days -= days_in_month(year, month);
            month += 1;
        }
        (year, month, days as u32 + 1)
    }

    /// The day number of a valid date by walking (see [`walked_ymd`]).
    fn walked_day_number(year: i32, month: u32, day: u32) -> i32 {
        let mut days: i32 = 0;
        if year >= EPOCH_YEAR {
            days += (EPOCH_YEAR..year).map(days_in_year).sum::<i32>();
        } else {
            days -= (year..EPOCH_YEAR).map(days_in_year).sum::<i32>();
        }
        days += (1..month).map(|m| days_in_month(year, m)).sum::<i32>();
        days + day as i32 - 1
    }

    #[test]
    fn closed_form_calendar_equals_walking_it() {
        for day in -100_000..200_000 {
            let date = Date::from_day_number(day);
            let (y, m, d) = date.ymd();
            assert_eq!((y, m, d), walked_ymd(day), "day {day}");
            assert_eq!(Date::from_ymd(y, m, d), date, "day {day}");
            assert_eq!(walked_day_number(y, m, d), day, "day {day}");
        }
        assert_eq!(Date::try_from_ymd(1900, 2, 29), None);
        assert_eq!(Date::try_from_ymd(2000, 2, 30), None);
        assert_eq!(
            Date::try_from_ymd(2000, 2, 29).map(|d| d.ymd()),
            Some((2000, 2, 29))
        );
        assert_eq!(
            Date::try_from_ymd(i32::MAX, 1, 1),
            None,
            "day number past i32"
        );
    }

    #[test]
    fn ymd_round_trip_over_two_centuries() {
        let mut day = 0;
        let mut expect = (1900, 1, 1);
        while day < DATE_DIM_DAYS as i32 {
            let d = Date::from_day_number(day);
            assert_eq!(d.ymd(), (expect.0, expect.1, expect.2), "day {day}");
            // advance expected calendar by hand
            expect.2 += 1;
            if expect.2 > days_in_month(expect.0, expect.1) as u32 {
                expect.2 = 1;
                expect.1 += 1;
                if expect.1 > 12 {
                    expect.1 = 1;
                    expect.0 += 1;
                }
            }
            day += 1;
        }
    }

    #[test]
    fn date_dim_spans_73049_days() {
        let first = Date::from_ymd(1900, 1, 1);
        let last = Date::from_ymd(2099, 12, 31);
        assert_eq!(last.days_since(&first) + 1, DATE_DIM_DAYS as i32);
    }

    #[test]
    fn known_dates() {
        assert_eq!(Date::from_ymd(2000, 2, 29).day_number(), 36_583);
        assert_eq!(Date::from_ymd(1900, 1, 1).day_number(), 0);
        assert_eq!(Date::from_ymd(1900, 12, 31).day_number(), 364);
        assert_eq!(Date::from_ymd(1901, 1, 1).day_number(), 365);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(1996));
        assert!(!is_leap_year(1997));
    }

    #[test]
    fn date_sk_bias_matches_dsdgen() {
        // dsdgen's d_date_sk for 1900-01-02 is 2415023.
        assert_eq!(Date::from_ymd(1900, 1, 2).date_sk(), 2_415_023);
        let d = Date::from_ymd(2001, 7, 4);
        assert_eq!(Date::from_date_sk(d.date_sk()), d);
    }

    #[test]
    fn day_of_week_anchor() {
        // 1900-01-01 was a Monday (1), 2000-01-01 a Saturday (6).
        assert_eq!(Date::from_ymd(1900, 1, 1).day_of_week(), 1);
        assert_eq!(Date::from_ymd(2000, 1, 1).day_of_week(), 6);
        assert_eq!(Date::from_ymd(2001, 9, 9).day_of_week(), 0); // a Sunday
    }

    #[test]
    fn quarters_and_doy() {
        assert_eq!(Date::from_ymd(1999, 3, 31).quarter(), 1);
        assert_eq!(Date::from_ymd(1999, 4, 1).quarter(), 2);
        assert_eq!(Date::from_ymd(1999, 12, 31).day_of_year(), 365);
        assert_eq!(Date::from_ymd(2000, 12, 31).day_of_year(), 366);
    }

    #[test]
    fn parse_and_display() {
        let d: Date = "1999-02-21".parse().unwrap();
        assert_eq!(d.to_string(), "1999-02-21");
        assert!("1999-02-30".parse::<Date>().is_err());
        assert!("hello".parse::<Date>().is_err());
        assert!("1999-13-01".parse::<Date>().is_err());
    }

    #[test]
    fn week_seq_increments_on_sundays() {
        let mut prev = Date::from_ymd(1998, 1, 1).week_seq();
        for i in 1..1000 {
            let d = Date::from_ymd(1998, 1, 1).add_days(i);
            let w = d.week_seq();
            if d.day_of_week() == 0 {
                assert_eq!(w, prev + 1, "week bumps on Sunday {d}");
            } else {
                assert_eq!(w, prev, "week stable mid-week {d}");
            }
            prev = w;
        }
    }

    #[test]
    fn time_components() {
        let t = Time::from_hms(13, 45, 59);
        assert_eq!(t.seconds(), 13 * 3600 + 45 * 60 + 59);
        assert_eq!(t.to_string(), "13:45:59");
        assert_eq!(t.am_pm(), "PM");
        assert_eq!(t.shift(), "first");
        assert_eq!(t.sub_shift(), "afternoon");
        assert_eq!(t.meal_time(), Some("dinner"));
        assert_eq!(Time::from_hms(3, 0, 0).meal_time(), None);
    }
}
