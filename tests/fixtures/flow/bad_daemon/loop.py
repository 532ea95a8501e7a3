"""sim.every ticks that stall the clock or add foreground work."""


class Loop:
    def __init__(self, sim):
        self.sim = sim

    def ensure_running(self):
        self.sim.every(1.0, self.tick)
        self.sim.every(2.0, self.tick2)

    def tick(self):
        while True:
            self.drain()

    def tick2(self):
        self.sim.schedule_after(1.0, self.drain)

    def drain(self):
        pass
