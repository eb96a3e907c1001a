"""A figure sweep's rows as (label, distance, power) tuples, in order.

run_angle_sweep and run_power_distance_sweep return a FigureRows, which gives
its rows only as families. The tests read them through families(), the path
emit and replication_report take, and flatten them here.
"""


def rows_of(figure):
    """The FigureRows' rows, family by family, as a list of 3-tuples."""
    return [
        (label, distance, power)
        for label, distances, powers in figure.families()
        for distance, power in zip(distances, powers)
    ]
