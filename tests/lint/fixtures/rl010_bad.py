"""Fixture: direct hardware actuation outside the control plane."""


def undervolt(chip, now):
    chip.set_voltage(700, now)


def pin_clock(chip, freq_hz, now):
    chip.set_pmd_frequency(0, freq_hz, now)
    chip.cppc.request(1, freq_hz, now)


def park_all(chip, spec, now):
    chip.set_all_frequencies(spec.fmin_hz, now)
    return chip.cppc.request_all(spec.fmin_hz, now)


def rail_write(slimpro, now):
    slimpro.set_voltage_mv(880, now)


def move_threads(system, process, cores):
    system.migrate_many({process: cores})


def place_arrival(system, process, cores):
    system.admit(process, cores)
