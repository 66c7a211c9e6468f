"""E7b — Section 7's personal deployments.

"Personal use has been successful: one of us has recorded over 250 URLs
and the other nearly 100."  And the overload lesson: "Merely sorting
URLs by most recent modification dates is not satisfactory when the
number of URLs grows into the hundreds."

The bench simulates both users — a 250-URL hotlist and a 100-URL one —
through a month of daily runs against the same synthetic web, and
reports per-user: requests spent, changes surfaced, and the size of
the "what's new" list the user confronts each morning (the information-
overload figure that motivated prioritization).
"""

import zlib

from repro.aide.engine import Aide
from repro.core.w3newer.report import ReportOptions
from repro.aide.prioritize import parse_priority_config
from repro.simclock import DAY, WEEK
from repro.workloads.scenario import build_hotlist, build_web

SIM_DAYS = 28


def run_user(aide, web, name, size, reads_per_day):
    hotlist = build_hotlist(web, size=size, seed=zlib.crc32(name.encode()) % 10_000)
    user = aide.add_user(name, hotlist)
    daily_changed = []
    requests = 0
    for day in range(1, SIM_DAYS + 1):
        web.cron.run_until(day * DAY)
        run = user.tracker.run()
        requests += run.http_requests
        daily_changed.append(len(run.changed))
        for outcome in run.changed[:reads_per_day]:
            user.visit(outcome.url, aide.clock)
    return user, daily_changed, requests


def build_and_run():
    web = build_web(sites=40, pages_per_site=10, seed=250)
    aide = Aide(clock=web.clock, network=web.network)
    heavy = run_user(aide, web, "douglis@research", 250, reads_per_day=15)
    light = run_user(aide, web, "ball@research", 100, reads_per_day=15)
    return heavy, light


def test_sec7_personal(benchmark, sink):
    heavy, light = benchmark.pedantic(build_and_run, rounds=1, iterations=1)

    sink.row("E7b: two personal deployments, one month of daily runs")
    sink.row(f"{'user':22s} {'hotlist':>7s} {'requests':>9s} "
             f"{'avg changed/day':>16s} {'peak changed':>13s}")
    for (user, daily, requests), size in ((heavy, 250), (light, 100)):
        avg = sum(daily) / len(daily)
        sink.row(f"{user.name:22s} {size:7d} {requests:9d} "
                 f"{avg:16.1f} {max(daily):13d}")

    heavy_user, heavy_daily, heavy_requests = heavy
    light_user, light_daily, light_requests = light

    # The bigger hotlist costs more but sublinearly per-URL…
    assert heavy_requests > light_requests
    # …and its report routinely exceeds what a person reads in a
    # sitting: the information-overload problem.
    overload_days = sum(1 for n in heavy_daily if n > 15)
    sink.row()
    sink.row(f"days the 250-URL report exceeded 15 changes: {overload_days}"
             f" of {SIM_DAYS} (the Section 7 overload complaint)")
    assert overload_days > SIM_DAYS // 3

    # Prioritization demo: the overload remedy reorders the report.
    priorities = parse_priority_config("http://www\\.site0\\..* 10\n")
    last_run = heavy_user.tracker.runs[-1]
    from repro.core.w3newer.report import render_report

    html = render_report(
        last_run.outcomes, list(heavy_user.hotlist),
        ReportOptions(priority=priorities.as_function()),
    )
    assert html  # renders cleanly with a priority function
