import gc
import sys


def main() -> None:
    # A CLI process builds only long-lived objects while it imports, and an external
    # child starts once per slice: collect nothing during the imports, then freeze
    # what they built so that no later pass, the full one at exit included, walks it.
    gc.disable()
    from . import cli
    gc.freeze()
    gc.enable()
    sys.exit(cli.main())


if __name__ == "__main__":      # python -m paratide; the console script calls main()
    main()
