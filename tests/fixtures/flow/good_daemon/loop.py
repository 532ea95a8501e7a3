"""The Monitor/ControlLoop tick registration, in miniature."""


class Loop:
    def __init__(self, sim):
        self.sim = sim
        self.ticks = 0
        self._loop = None

    def ensure_running(self):
        if self._loop is None:
            self._loop = self.sim.every(1.0, self.tick)

    def tick(self):
        self.ticks += 1
